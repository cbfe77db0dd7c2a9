import os
import shutil

import numpy as np
import pytest

from conftest import write_scenario
from paygsim import (cli, default_config_path, load_config, run_deterministic_projection,
                     run_simulation, stepwise_projection)
from paygsim.cashflows import LEDGER_COLUMNS, identities_hold, round_half_away
from paygsim.cohorts import death_probability_grid
from paygsim.engine import (build_system, entrant_moment_tables, entrant_product,
                            entrants_matrix, opening_balance, price_index, return_rates,
                            simulate_flows, survival_rates)
from paygsim.entrants import DRAWS_PER_CELL
from paygsim.montecarlo import draw_shock_blocks
from paygsim.stochastic import open_streams


def rel_close(a, b, tol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.all(np.abs(a - b) <= tol * scale)


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    return load_config(write_scenario(str(tmp_path_factory.mktemp("scn"))))


FLOW_KEYS = ("subjective", "integrative", "disbursements", "actives", "retirees")


class TestTwoEnginesAgree:
    def test_deterministic_paths_match(self, small_cfg):
        fast = run_deterministic_projection(small_cfg)
        slow = stepwise_projection(small_cfg)
        for key in FLOW_KEYS:
            assert rel_close(getattr(fast, key), getattr(slow, key)), key
        for name, col in fast.ledger.items():
            # the ledger quantizes to cents, so agreement must be exact
            assert np.array_equal(col, slow.ledger[name]), name
        for s in small_cfg.sexes:
            assert rel_close(fast.entrants[s], slow.entrants[s])

    def test_bundled_deterministic_paths_match(self, cfg):
        fast = run_deterministic_projection(cfg)
        slow = stepwise_projection(cfg)
        for key in FLOW_KEYS:
            assert rel_close(getattr(fast, key), getattr(slow, key)), key
        for name, col in fast.ledger.items():
            assert np.array_equal(col, slow.ledger[name]), name

    def test_bundled_stochastic_replication_matches(self, cfg):
        blocks = draw_shock_blocks(cfg, [0])
        ne = entrants_matrix(cfg, blocks.entrants)
        system = build_system(cfg)
        flows = simulate_flows(system, ne, survival_rates(system, blocks.mortality))
        path = {s: ne[0, :, si] for si, s in enumerate(cfg.sexes)}
        slow = stepwise_projection(cfg, entrants_path=path,
                                   eps_mort=blocks.mortality[0],
                                   eps_ret=blocks.returns[0])
        for key in FLOW_KEYS:
            assert rel_close(flows[key][0], getattr(slow, key)), key

    def test_stochastic_replication_matches(self, small_cfg):
        # replay one replication's shocks through both engines
        blocks = draw_shock_blocks(small_cfg, [0])
        ne = entrants_matrix(small_cfg, blocks.entrants)
        system = build_system(small_cfg)
        flows = simulate_flows(system, ne, survival_rates(system, blocks.mortality))
        rates = return_rates(small_cfg, blocks.returns, stochastic=True)

        path = {s: ne[0, :, si] for si, s in enumerate(small_cfg.sexes)}
        slow = stepwise_projection(small_cfg, entrants_path=path,
                                   eps_mort=blocks.mortality[0],
                                   eps_ret=blocks.returns[0])
        for key in FLOW_KEYS:
            assert rel_close(flows[key][0], getattr(slow, key)), key
        assert rel_close(rates[0], slow.rates)

    @pytest.mark.parametrize("scenario", ["bundled", "small"])
    def test_replayed_replications_give_the_same_ledger_to_the_cent(self, scenario,
                                                                   request):
        cfg = request.getfixturevalue("cfg" if scenario == "bundled" else "small_cfg")
        result = run_simulation(cfg.with_run(n_reps=8))
        blocks = draw_shock_blocks(cfg, range(8))
        for rep in range(8):
            slow = stepwise_projection(
                cfg, entrants_path={s: result.entrants[s][rep] for s in cfg.sexes},
                eps_mort=blocks.mortality[rep], eps_ret=blocks.returns[rep])
            for name in LEDGER_COLUMNS:
                assert np.array_equal(result.ledger[name][rep], slow.ledger[name]), \
                    (rep, name)



def _halved(a):
    return a[:len(a) // 2]


def _lengthened(a):
    return np.concatenate([a, a[-1:]])


# each case turns a valid replay (entrants_path, eps_mort, eps_ret) into a bad one
BAD_REPLAYS = {
    "short_entrants_path": ("entrants_path", lambda p, m, r: (
        {s: _halved(v) for s, v in p.items()}, m, r)),
    "long_entrants_path": ("entrants_path", lambda p, m, r: (
        {s: _lengthened(v) for s, v in p.items()}, m, r)),
    "missing_sex": ("entrants_path", lambda p, m, r: ({"male": p["male"]}, m, r)),
    "unknown_sex": ("entrants_path", lambda p, m, r: (dict(p, other=p["male"]), m, r)),
    "short_eps_mort": ("eps_mort", lambda p, m, r: (p, _halved(m), r)),
    "long_eps_mort": ("eps_mort", lambda p, m, r: (p, _lengthened(m), r)),
    "eps_mort_missing_an_age": ("eps_mort", lambda p, m, r: (p, m[:, :, 1:], r)),
    "short_eps_ret": ("eps_ret", lambda p, m, r: (p, m, _halved(r))),
    "long_eps_ret": ("eps_ret", lambda p, m, r: (p, m, _lengthened(r))),
    "2d_eps_ret": ("eps_ret", lambda p, m, r: (p, m, r[:, None])),
}


class TestReplayInputs:
    @pytest.fixture(scope="class")
    def replay(self, small_cfg):
        blocks = draw_shock_blocks(small_cfg, [0])
        ne = entrants_matrix(small_cfg, blocks.entrants)
        return ({s: ne[0, :, si] for si, s in enumerate(small_cfg.sexes)},
                blocks.mortality[0], blocks.returns[0])

    @pytest.mark.parametrize("case", list(BAD_REPLAYS))
    def test_a_misshapen_replay_is_refused_before_year_1(self, small_cfg, replay, case):
        name, spoil = BAD_REPLAYS[case]
        path, mort, ret = spoil(*replay)
        with pytest.raises(ValueError, match=name):
            stepwise_projection(small_cfg, entrants_path=path, eps_mort=mort, eps_ret=ret)

    def test_a_valid_replay_returns_its_entrants(self, small_cfg, replay):
        slow = stepwise_projection(small_cfg, *replay)
        for s in small_cfg.sexes:
            assert slow.entrants[s].tobytes() == replay[0][s].tobytes()

class TestSurvivalRates:
    def test_each_year_is_one_minus_the_oracles_death_rate(self, small_cfg):
        system = build_system(small_cfg)
        eps = draw_shock_blocks(small_cfg, range(3)).mortality * 400.0  # both clips
        kept = eps.copy()
        survival = survival_rates(system, eps)
        assert eps.tobytes() == kept.tobytes()  # the shocks are left as they were
        for rep in range(len(eps)):
            for ti, t in enumerate(small_cfg.years):
                q = death_probability_grid(small_cfg.mortality, t, eps[rep, ti])
                assert survival[rep, ti].tobytes() == (1.0 - q).tobytes(), (rep, t)
        assert np.any(survival == 0.0) and np.any(survival == 1.0)

    def test_in_place_gives_the_same_bits(self, small_cfg):
        system = build_system(small_cfg)
        eps = draw_shock_blocks(small_cfg, range(2)).mortality
        want = survival_rates(system, eps)
        assert survival_rates(system, eps, out=eps) is eps
        assert eps.tobytes() == want.tobytes()

    def test_zero_shocks_give_the_expected_path(self, small_cfg):
        system = build_system(small_cfg)
        ne = entrants_matrix(small_cfg, np.zeros((2, len(small_cfg.years),
                                                  len(small_cfg.sexes), DRAWS_PER_CELL)))
        zero = survival_rates(system, np.zeros((2,) + system.qbar.shape))
        assert zero.tobytes() == np.broadcast_to(1.0 - system.qbar, zero.shape).tobytes()
        shocked, expected = simulate_flows(system, ne, zero), simulate_flows(system, ne)
        for key in FLOW_KEYS:
            assert shocked[key].tobytes() == expected[key].tobytes(), key


class TestOpeningBalance:
    def test_backfill_replays_history(self, small_cfg):
        # entry 3 years before the census: only the post-exemption year
        # (2005, still at base prices) credits 10% of 50000
        assert opening_balance(small_cfg, [0], [33], [3])[0] == pytest.approx(5000.0)
        # one year longer: 5000 accrued once plus a fresh 5000
        assert opening_balance(small_cfg, [0], [34], [4])[0] == pytest.approx(
            5000.0 * 1.03 + 5000.0)

    def test_zero_without_backfill_or_seniority(self, small_cfg, tmp_path):
        assert opening_balance(small_cfg, [0], [40], [0])[0] == 0.0
        nofill = load_config(write_scenario(
            str(tmp_path), tweaks={"benefits": {"backfill_notional": False}}))
        assert opening_balance(nofill, [0], [40], [10])[0] == 0.0

    def test_price_index_is_flat_before_base_year(self, small_cfg):
        assert price_index(small_cfg, 2001) == 1.0
        assert price_index(small_cfg, 2005) == 1.0
        assert price_index(small_cfg, 2006) == pytest.approx(1.02)


class TestDeterministicLedger:
    def test_investment_income_is_opening_times_rate(self, small_cfg):
        res = run_deterministic_projection(small_cfg)
        cols = res.ledger
        for t, rate in enumerate(res.rates):
            want = round_half_away(cols["value_start"][t] * rate)
            assert cols["investment_income"][t] == want

    def test_identities_hold(self, small_cfg):
        assert identities_hold(run_deterministic_projection(small_cfg).ledger)

    def test_doubling_admin_base_doubles_admin_only(self, small_cfg, tmp_path):
        doubled = load_config(write_scenario(
            str(tmp_path), tweaks={"economics": {"admin_base": 20_000}}))
        a = run_deterministic_projection(small_cfg)
        b = run_deterministic_projection(doubled)
        assert np.array_equal(2 * a.ledger["admin_costs"],
                              b.ledger["admin_costs"])
        for untouched in ("contrib_subjective", "contrib_integrative", "disbursements"):
            assert np.array_equal(a.ledger[untouched],
                                  b.ledger[untouched])
        assert b.ledger["value_end"][-1] < a.ledger["value_end"][-1]

    def test_final_value_increases_with_expected_return(self, small_cfg, tmp_path):
        rich = load_config(write_scenario(
            str(tmp_path), tweaks={"economics": {"expected_return": 0.05}}))
        a = run_deterministic_projection(small_cfg)
        b = run_deterministic_projection(rich)
        assert b.ledger["value_end"][-1] > a.ledger["value_end"][-1]

    def test_without_arrivals_the_pension_balance_turns_negative(self, tmp_path):
        zero_factors = {
            s: {name: {"mean": 0.0, "sigma": 0.0}
                for name in ("enrolment", "graduation", "admission", "membership")}
            for s in ("male", "female")
        }
        pop_rows = ["year,sex,expected,sigma"] + [
            f"{y},{s},1000,0" for y in range(1995, 2031) for s in ("male", "female")]
        mort_rows = ["sex,age,q0,drift,sigma"] + [
            f"{s},{a},0.01,0.0,0.005" for s in ("male", "female") for a in range(30, 51)]
        path = write_scenario(
            str(tmp_path),
            tweaks={"horizon": {"last_year": 2030},
                    "entrants": {"factors": zero_factors},
                    "run": {"moments_years": [2010, 2020, 2030]}},
            csv_overrides={"population.csv": pop_rows, "mortality.csv": mort_rows})
        res = run_deterministic_projection(load_config(path))
        for s in res.entrants:
            assert np.all(res.entrants[s] == 0.0)
        balance = res.ledger["pension_balance"]
        assert balance[0] > 0
        # once the last actives retire only disbursements remain
        # (until the retirees too age off the grid)
        assert np.any(balance < 0)
        first_negative = int(res.years[np.argmax(balance < 0)])
        assert first_negative > 2006
        assert res.actives[-1] == 0.0

    def test_rates_flag_off_equals_schedule(self, small_cfg):
        eps = next(open_streams(3, [0])).standard_normal((4, len(small_cfg.years)))
        rates = return_rates(small_cfg, eps, stochastic=False)
        assert np.all(rates == 0.03)
        live = return_rates(small_cfg, eps, stochastic=True)
        assert not np.allclose(live, 0.03)


class TestEntrantsMatrix:
    def test_zero_shocks_give_expected_product(self, small_cfg):
        n_years, n_sex = len(small_cfg.years), len(small_cfg.sexes)
        ne = entrants_matrix(small_cfg, np.zeros((1, n_years, n_sex, DRAWS_PER_CELL)))
        # 1000 * 0.1 * 0.5 * 0.2 * 0.5 every year for both sexes
        assert np.allclose(ne, 5.0)

    def test_deep_negative_shock_annihilates_the_year(self, small_cfg):
        n_years, n_sex = len(small_cfg.years), len(small_cfg.sexes)
        eps = np.zeros((1, n_years, n_sex, DRAWS_PER_CELL))
        eps[0, 3, 0, 2] = -1000.0
        ne = entrants_matrix(small_cfg, eps)
        assert ne[0, 3, 0] == 0.0
        assert ne[0, 3, 1] == pytest.approx(5.0)
        assert ne[0, 2, 0] == pytest.approx(5.0)

    def test_batched_product_is_each_replications_product(self, small_cfg):
        # the same bits whether a replication's shocks come alone or in a
        # batch, and the same as the floored product written out
        mean, sigma = entrant_moment_tables(small_cfg)
        eps = np.random.default_rng(5).standard_normal((7,) + mean.shape) * 30.0
        batch = entrant_product(mean, sigma, eps)
        assert batch.tobytes() == np.prod(np.maximum(0.0, mean + sigma * eps),
                                          axis=-1).tobytes()
        for i in range(len(eps)):
            assert entrant_product(mean, sigma, eps[i]).tobytes() == batch[i].tobytes()
        assert np.any(batch == 0.0)  # some factor was floored

    def test_shape_checked(self, small_cfg):
        with pytest.raises(ValueError, match="shocks"):
            entrants_matrix(small_cfg, np.zeros((1, 3, 2, DRAWS_PER_CELL)))


class TestRetirementConventions:
    def test_census_retirees_draw_the_pre_existing_profile(self, small_cfg):
        # 10 retirees per sex at age 42 on 20000 each: D(2006) = 400000
        res = run_deterministic_projection(small_cfg)
        assert res.disbursements[0] == pytest.approx(400_000.0)

    def test_pensions_in_payment_are_indexed(self, tmp_path):
        # freeze new retirements far away so only the census pensions remain
        path = write_scenario(str(tmp_path), tweaks={
            "retirement": {"thresholds": {"old_age": {"min_age": 120, "min_seniority": 0}}}})
        mort_free = write_scenario(str(tmp_path), tweaks={
            "retirement": {"thresholds": {"old_age": {"min_age": 120, "min_seniority": 0}}}},
            csv_overrides={"mortality.csv": ["sex,age,q0,drift,sigma"] + [
                f"{s},{a},0.0,0.0,0.0" for s in ("male", "female") for a in range(30, 51)]})
        res = run_deterministic_projection(load_config(mort_free))
        # with no deaths and no new retirees, D grows exactly with inflation
        for t in range(1, 9):
            assert res.disbursements[t] == pytest.approx(
                res.disbursements[t - 1] * 1.02)

    def test_new_retiree_pension_is_balance_times_coefficient(self, tmp_path):
        # one active, no deaths, retires at 41 (2007): pension = balance * 0.06
        census = ["sex,age,seniority,status,count", "male,40,10,active,1"]
        mort = ["sex,age,q0,drift,sigma"] + [
            f"{s},{a},0.0,0.0,0.0" for s in ("male", "female") for a in range(30, 51)]
        zero_factors = {
            s: {name: {"mean": 0.0, "sigma": 0.0}
                for name in ("enrolment", "graduation", "admission", "membership")}
            for s in ("male", "female")
        }
        path = write_scenario(str(tmp_path),
                              tweaks={"entrants": {"factors": zero_factors}},
                              csv_overrides={"census.csv": census, "mortality.csv": mort})
        cfg = load_config(path)
        res = run_deterministic_projection(cfg)
        bal = opening_balance(cfg, [0], [40], [10])[0]
        # 2006 contributions are credited before the 2007 retirement check
        bal = bal * 1.03 + 0.10 * 50_000 * price_index(cfg, 2006)
        assert res.disbursements[0] == 0.0
        assert res.disbursements[1] == pytest.approx(bal * 0.06)
        # afterwards the pension rides inflation
        assert res.disbursements[2] == pytest.approx(bal * 0.06 * 1.02)
        assert res.retirees[1] == 1.0 and res.actives[1] == 0.0


def test_a_one_year_horizon_runs(tmp_path, capsys):
    # no arrival cohorts at all: the census alone, for the census year
    bundled = os.path.dirname(default_config_path())
    for name in os.listdir(bundled):
        shutil.copy(os.path.join(bundled, name), tmp_path)
    path = tmp_path / "default_scenario.yaml"
    text = path.read_text(encoding="utf-8")
    for old, new in (("last_year: 2046", "last_year: 2006"),
                     ("moments_years: [2010, 2015, 2020, 2025, 2030, 2035, 2040, 2045]",
                      "moments_years: [2006]")):
        assert old in text
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    assert cli.main(["project", "--config", str(path), "--out", str(tmp_path / "p")]) == 0
    assert cli.main(["simulate", "--config", str(path), "--reps", "3",
                     "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    cfg = load_config(str(path))
    fast, slow = run_deterministic_projection(cfg), stepwise_projection(cfg)
    assert list(fast.years) == [2006]
    for name in LEDGER_COLUMNS:
        assert np.array_equal(fast.ledger[name], slow.ledger[name]), name
