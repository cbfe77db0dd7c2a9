import numpy as np
import pytest

from types import SimpleNamespace

from paygsim import Schedule
from paygsim.cashflows import (LEDGER_COLUMNS, LEDGER_LETTERS, AgeProfile, BenefitRule,
                               ContributionRule, EconomicAssumptions, accrue_and_credit,
                               cents_to_thousands, contribution_income, identities_hold,
                               ledger_columns, pension_disbursement, round_half_away,
                               to_cents)
from paygsim.cohorts import CohortGrid
from paygsim.engine import admin_path, price_index, return_rates
from paygsim.errors import CoverageError, StateError
from paygsim.stochastic import Ar1Params


def flat_profile(amount, sexes=("male", "female"), min_age=20, max_age=80):
    n = (len(sexes), max_age - min_age + 1)
    return AgeProfile(tuple(sexes), min_age, max_age, np.full(n, float(amount)))


def make_grid(records, year=2006, sexes=("male", "female"),
              min_age=20, max_age=80, max_seniority=40):
    return CohortGrid.from_records(records, year, sexes, min_age, max_age, max_seniority)


def econ(**kw):
    base = dict(initial_assets=1_000_000.0, admin_base=10_000.0, admin_growth=0.05,
                admin_base_year=2006, inflation=Schedule(default=0.02),
                expected_return=Schedule(default=0.034),
                deviations=Ar1Params(phi=-0.612, sigma=0.03667),
                profile_base_year=2005)
    base.update(kw)
    return EconomicAssumptions(**base)


def horizon(ec, first_year=2006, last_year=2040):
    """What the engine's money rules read of a scenario: its economics and years."""
    return SimpleNamespace(economics=ec, years=list(range(first_year, last_year + 1)))


def one_row(value_start_cents, subj_eur, integ_eur, disb_eur, admin_eur, rate):
    """The ledger of a one-year horizon opening at value_start_cents, each
    column as its one amount."""
    cols = ledger_columns(value_start_cents, [subj_eur], [integ_eur], [disb_eur],
                          [admin_eur], [rate])
    return {name: int(col[0]) for name, col in cols.items()}


def euro_ledger(opening_eur, *flows):
    """The ledger of euro flows opening at opening_eur."""
    return ledger_columns(int(to_cents(opening_eur)), *flows)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(-0.5) == -1
        assert round_half_away(1.5) == 2
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3
        assert round_half_away(0.49) == 0
        assert round_half_away(-0.49) == 0

    def test_to_cents(self):
        assert to_cents(12.34) == 1234
        assert to_cents(-12.34) == -1234
        assert to_cents(0.005) == 1
        assert to_cents(-0.005) == -1
        assert to_cents(0.0) == 0

    @pytest.mark.parametrize("euros", [np.inf, -np.inf, np.nan, 1e17, -1e17])
    def test_to_cents_rejects_what_int64_cannot_hold(self, euros):
        with pytest.raises(StateError, match="int64"):
            to_cents(euros)
        with pytest.raises(StateError):
            to_cents(np.array([1.0, euros]))

    def test_to_cents_keeps_the_largest_fitting_amounts(self):
        assert to_cents(9.2e16) == 9_200_000_000_000_000_000
        assert to_cents(-9.2e16) == -9_200_000_000_000_000_000

    def test_cents_to_thousands(self):
        assert cents_to_thousands(49_999) == 0
        assert cents_to_thousands(50_000) == 1
        assert cents_to_thousands(-50_000) == -1
        assert cents_to_thousands(235_721_000_00) == 235_721

    def test_array_forms(self):
        got = cents_to_thousands(np.array([149_999, 150_000]))
        assert got.tolist() == [1, 2]
        assert round_half_away(np.array([0.5, -0.5])).tolist() == [1, -1]


class TestAgeProfile:
    def test_value_and_errors(self):
        p = flat_profile(100.0)
        assert p.value("male", 40) == 100.0
        with pytest.raises(CoverageError, match="sex"):
            p.value("other", 40)
        with pytest.raises(CoverageError, match="age"):
            p.value("male", 19)

    def test_nan_cell_is_a_gap(self):
        vals = np.full((1, 3), 50.0)
        vals[0, 1] = np.nan
        p = AgeProfile(("male",), 30, 32, vals)
        assert p.value("male", 30) == 50.0
        with pytest.raises(CoverageError, match="31"):
            p.value("male", 31)

    def test_slice_pads_outside_band_with_nan(self):
        p = flat_profile(10.0, sexes=("male",), min_age=30, max_age=35)
        g = CohortGrid.empty(2006, ("male",), 28, 37, 5)
        s = p.slice_for(g)
        assert s.shape == (1, 10)
        assert np.isnan(s[0, 0]) and np.isnan(s[0, -1])
        assert np.all(s[0, 2:8] == 10.0)


class TestContributions:
    def test_headcount_times_rate_times_income(self):
        g = make_grid([("male", 40, 5, "active", 10)])
        rule = ContributionRule("subjective", Schedule(default=0.107),
                                flat_profile(100_000.0), exemption_years=3)
        assert contribution_income(g, rule, 2006, 1.0) == pytest.approx(107_000.0)

    def test_exempt_seniorities_pay_nothing(self):
        rule = ContributionRule("subjective", Schedule(default=0.107),
                                flat_profile(100_000.0), exemption_years=3)
        for sen in (0, 2, 3):
            g = make_grid([("male", 40, sen, "active", 10)])
            assert contribution_income(g, rule, 2006, 1.0) == 0.0
        g = make_grid([("male", 40, 4, "active", 10)])
        assert contribution_income(g, rule, 2006, 1.0) > 0.0

    def test_an_exemption_past_the_top_seniority_exempts_everyone(self):
        rule = ContributionRule("subjective", Schedule(default=0.107),
                                flat_profile(100_000.0), exemption_years=40)
        g = make_grid([("male", 70, 40, "active", 10)], max_seniority=40)
        assert contribution_income(g, rule, 2006, 1.0) == 0.0

    def test_retired_pay_nothing(self):
        g = make_grid([("male", 70, 30, "retired", 50)])
        rule = ContributionRule("subjective", Schedule(default=0.107),
                                flat_profile(100_000.0), exemption_years=3)
        assert contribution_income(g, rule, 2006, 1.0) == 0.0

    def test_price_index_appreciates_the_profile(self):
        g = make_grid([("male", 40, 5, "active", 10)])
        rule = ContributionRule("subjective", Schedule(default=0.10),
                                flat_profile(100_000.0), exemption_years=0)
        base = contribution_income(g, rule, 2006, 1.0)
        assert contribution_income(g, rule, 2006, 1.05) == pytest.approx(1.05 * base)

    def test_rate_schedule_by_year(self):
        g = make_grid([("male", 40, 5, "active", 10)])
        rule = ContributionRule(
            "integrative", Schedule(default=0.02, overrides={2006: 0.04}),
            flat_profile(100_000.0), exemption_years=0)
        assert contribution_income(g, rule, 2006, 1.0) == pytest.approx(40_000.0)
        assert contribution_income(g, rule, 2010, 1.0) == pytest.approx(20_000.0)

    def test_populated_cell_without_profile_value(self):
        g = make_grid([("male", 40, 5, "active", 10)])
        narrow = flat_profile(100_000.0, min_age=50, max_age=60)
        rule = ContributionRule("subjective", Schedule(default=0.1), narrow, 0)
        with pytest.raises(CoverageError, match="age 40"):
            contribution_income(g, rule, 2006, 1.0)

    def test_empty_cells_need_no_profile(self):
        g = make_grid([("male", 55, 5, "active", 10)])
        narrow = flat_profile(100_000.0, min_age=50, max_age=60)
        rule = ContributionRule("subjective", Schedule(default=0.1), narrow, 0)
        assert contribution_income(g, rule, 2006, 1.0) == pytest.approx(100_000.0)


class TestNotionalAccounts:
    def test_accrue_then_credit(self):
        g = make_grid([("male", 40, 5, "active", 1)])
        rule = ContributionRule("subjective", Schedule(default=0.10),
                                flat_profile(100_000.0), exemption_years=3)
        balances = np.zeros_like(g.counts[0])
        balances[0, 20, 5] = 100.0
        credited = accrue_and_credit(balances, g, rule, 2006, 1.0, accrual_rate=0.03)
        assert credited[0, 20, 5] == pytest.approx(103.0 + 10_000.0)
        assert balances[0, 20, 5] == 100.0

    def test_exempt_cells_accrue_but_get_no_credit(self):
        g = make_grid([("male", 40, 2, "active", 1)])
        rule = ContributionRule("subjective", Schedule(default=0.10),
                                flat_profile(100_000.0), exemption_years=3)
        balances = np.zeros_like(g.counts[0])
        balances[0, 20, 2] = 200.0
        credited = accrue_and_credit(balances, g, rule, 2006, 1.0, accrual_rate=0.05)
        assert credited[0, 20, 2] == pytest.approx(210.0)


class TestBenefits:
    def test_rule_validation(self):
        conv = flat_profile(0.05)
        BenefitRule("notional_account", conversion=conv)
        BenefitRule("fixed_profile", profile=flat_profile(20_000.0))
        with pytest.raises(ValueError, match="kind"):
            BenefitRule("lump_sum")
        with pytest.raises(ValueError, match="conversion"):
            BenefitRule("notional_account")
        with pytest.raises(ValueError, match="profile"):
            BenefitRule("fixed_profile")

    def test_no_retirees_no_disbursement(self):
        g = make_grid([("male", 40, 5, "active", 10)])
        assert pension_disbursement(g, np.zeros_like(g.counts[0])) == 0.0

    def test_total_paid(self):
        g = make_grid([("male", 70, 30, "retired", 100)])
        totals = np.zeros_like(g.counts[0])
        totals[0, 50, 30] = 100 * 20_000.0
        assert pension_disbursement(g, totals) == pytest.approx(2_000_000.0)

    def test_orphan_retiree_is_a_state_error(self):
        g = make_grid([("male", 70, 30, "retired", 1)])
        with pytest.raises(StateError, match="age 70"):
            pension_disbursement(g, np.zeros_like(g.counts[0]))

    def test_misaligned_totals_rejected(self):
        g = make_grid([("male", 70, 30, "retired", 1)])
        with pytest.raises(ValueError, match="aligned"):
            pension_disbursement(g, np.zeros((2, 3, 4)))


class TestEconomics:
    def test_admin_expense_growth(self):
        ec = econ(admin_base=28_447_830.0, admin_growth=0.05, admin_base_year=2006)
        admin = admin_path(horizon(ec, 2006, 2007))
        assert admin[0] == pytest.approx(28_447_830.0)
        assert admin[1] == pytest.approx(29_870_221.5)
        flat = econ(admin_base=500.0, admin_growth=0.0)
        assert admin_path(horizon(flat))[-1] == 500.0

    def test_price_index(self):
        ec = econ(inflation=Schedule(default=0.016, overrides={2006: 0.02, 2007: 0.017}))
        cfg = horizon(ec)
        assert price_index(cfg, 2005) == 1.0
        assert price_index(cfg, 2006) == pytest.approx(1.02)
        assert price_index(cfg, 2007) == pytest.approx(1.02 * 1.017)
        assert price_index(cfg, 2008) == pytest.approx(1.02 * 1.017 * 1.016)
        # flat before the profile base year, which only backcasts reach
        assert price_index(cfg, 2004) == 1.0

    def test_return_flag_off(self):
        rates = return_rates(horizon(econ(), 2006, 2006), np.array([[2.0]]), stochastic=False)
        assert rates[0, 0] == 0.034

    def test_return_flag_on(self):
        rates = return_rates(horizon(econ(), 2006, 2006), np.array([[1.0]]), stochastic=True)
        assert rates[0, 0] == pytest.approx(0.034 + 0.03667)

    def test_return_deviation_carries_over(self):
        # x0 = 0.5 feeds the first year's deviation with the flag on only
        ec = econ(deviations=Ar1Params(phi=-0.612, sigma=0.03667, x0=0.5))
        cfg = horizon(ec, 2006, 2006)
        live = return_rates(cfg, np.array([[0.0]]), stochastic=True)
        assert live[0, 0] == pytest.approx(0.034 - 0.306)
        assert return_rates(cfg, np.array([[0.0]]), stochastic=False)[0, 0] == 0.034

    def test_returns_can_go_negative(self):
        rates = return_rates(horizon(econ(), 2006, 2006), np.array([[-3.0]]), stochastic=True)
        assert rates[0, 0] < 0.0


class TestLedger:
    def test_columns_follow_the_statement_order(self):
        ledger = one_row(0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert tuple(ledger) == LEDGER_COLUMNS
        assert "".join(LEDGER_LETTERS) == "ABCDEFGHI"
        assert tuple(LEDGER_LETTERS.values()) == LEDGER_COLUMNS

    def test_single_row_hand_values(self):
        row = one_row(int(to_cents(100.0)), subj_eur=10.0,
                      integ_eur=0.0, disb_eur=5.0, admin_eur=1.0, rate=0.05)
        assert row["investment_income"] == 500        # 5.00
        assert row["pension_balance"] == 500
        assert row["total_balance"] == 900
        assert row["value_end"] == 10_900             # 109.00
        assert identities_hold(row)

    def test_zero_flows_zero_rate_is_identity(self):
        row = one_row(12_345, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert row["value_end"] == row["value_start"] == 12_345
        assert row["total_balance"] == 0

    def test_investment_income_is_rounded_product(self):
        # 333.33 euros at 3.4%: 1133.3322 cents, half away from zero
        row = one_row(33_333, 0.0, 0.0, 0.0, 0.0, 0.034)
        assert row["investment_income"] == 1133

    def test_chained_rows(self):
        ledger = euro_ledger(100.0, [10.0, 10.0, 10.0], [2.0, 2.0, 2.0],
                             [5.0, 5.0, 5.0], [1.0, 1.0, 1.0], [0.05, 0.05, 0.05])
        assert all(col.shape == (3,) for col in ledger.values())
        assert np.array_equal(ledger["value_end"][:-1], ledger["value_start"][1:])
        assert identities_hold(ledger)

    def test_negative_flows_round_away_from_zero(self):
        row = one_row(0, 0.0, 0.0, 0.005, 0.0, 0.0)
        assert row["disbursements"] == 1
        assert row["pension_balance"] == -1
        assert identities_hold(row)

    def test_batched_recursion_matches_scalar(self):
        rng = np.random.default_rng(3)
        subj = rng.uniform(0, 100, (4, 6))
        integ = rng.uniform(0, 50, (4, 6))
        disb = rng.uniform(0, 120, (4, 6))
        admin = rng.uniform(0, 10, (4, 6))
        rates = rng.normal(0.03, 0.05, (4, 6))
        batch = euro_ledger(1000.0, subj, integ, disb, admin, rates)
        assert identities_hold(batch)
        for i in range(4):
            solo = euro_ledger(1000.0, subj[i], integ[i], disb[i], admin[i], rates[i])
            for c, vals in solo.items():
                assert np.array_equal(batch[c][i], vals)

    def test_value_grows_with_the_return(self):
        lo = euro_ledger(1000.0, [10.0] * 5, [0.0] * 5, [0.0] * 5, [0.0] * 5, [0.01] * 5)
        hi = euro_ledger(1000.0, [10.0] * 5, [0.0] * 5, [0.0] * 5, [0.0] * 5, [0.05] * 5)
        assert hi["value_end"][4] > lo["value_end"][4]

    def test_closing_value_that_would_wrap_raises(self):
        # 9e16 euros doubling in a year is 1.8e19 cents, past int64's 9.2e18
        with pytest.raises(StateError, match="closing value"):
            ledger_columns(int(to_cents(9e16)), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                           [0.0, 0.0], rates=[1.0, 1.0])

    @pytest.mark.parametrize("rate", [3.0, -3.0, np.nan])
    def test_investment_income_that_int64_cannot_hold_raises(self, rate):
        with pytest.raises(StateError, match="investment income of year 2"):
            ledger_columns(int(to_cents(4e16)), [0.0] * 2, [0.0] * 2, [0.0] * 2,
                           [0.0] * 2, rates=[[0.0, 0.0], [0.0, rate]])

    def test_flow_sums_that_would_wrap_raise(self):
        big = [9e16, 9e16]
        with pytest.raises(StateError, match="contributions"):
            ledger_columns(0, big, big, [0.0, 0.0], [0.0, 0.0], rates=[0.0, 0.0])
        with pytest.raises(StateError, match="pension balance"):
            ledger_columns(0, big, [0.0, 0.0], [-9e16, -9e16], [0.0, 0.0], rates=[0.0, 0.0])
        with pytest.raises(StateError, match="total balance"):
            ledger_columns(0, [0.0, 0.0], [0.0, 0.0], big, big, rates=[0.0, 0.0])

    def test_largest_fitting_ledger_is_kept(self):
        cols = ledger_columns(int(to_cents(4.5e16)), [0.0], [0.0], [0.0], [0.0], rates=[1.0])
        assert int(cols["value_end"][0]) == 9_000_000_000_000_000_000
