import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paygsim.engine import entrant_product
from paygsim.errors import ConfigError
from paygsim.stochastic import Ar1Params, ar1_path, ar1_stationary_std, open_streams, stream_keys


def numpy_key(seed: int, stream_id: int) -> np.ndarray:
    return np.random.SeedSequence(seed, spawn_key=(stream_id,)).generate_state(2, np.uint64)


def numpy_stream(seed: int, stream_id: int) -> np.random.Generator:
    key = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(key))


class TestStreamKeys:
    """The key table is numpy's SeedSequence derivation, computed in bulk."""

    IDS = (0, 1, 2, 12345, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)

    # seeds of one to seven 32-bit words, each word count's edges included
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**63 + 11,
                                      2**64, 2**96 - 1, 2**127 + 5, 2**128, 2**160 + 2**33,
                                      2**200, 2**224 - 1])
    def test_equals_numpy_seed_sequence(self, seed):
        got = stream_keys(seed, self.IDS)
        assert got.dtype == np.uint64 and got.shape == (len(self.IDS), 2)
        want = np.array([numpy_key(seed, i) for i in self.IDS])
        assert np.array_equal(got, want)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**224 - 1),
           ids=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    def test_equals_numpy_on_random_keys(self, seed, ids):
        want = np.array([numpy_key(seed, i) for i in ids])
        assert np.array_equal(stream_keys(seed, ids), want)

    def test_accepts_any_sequence_of_ids(self):
        assert np.array_equal(stream_keys(3, range(4)), stream_keys(3, np.arange(4)))
        assert stream_keys(3, []).shape == (0, 2)

    @pytest.mark.parametrize("seed, ids", [(0, [2**32]), (5, [0, 2**40]), (-1, [0]),
                                           (0, [3, -1])])
    def test_out_of_range_keys_raise(self, seed, ids):
        with pytest.raises(ValueError):
            stream_keys(seed, ids)


class TestOpenStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 3])
    def test_each_stream_draws_what_a_stream_opened_alone_draws(self, seed):
        ids = [0, 1, 7, 2**31, 2**32 - 1]
        for i, gen in zip(ids, open_streams(seed, ids)):
            # a partly used stream, then the next: every reset starts afresh
            got = gen.standard_normal((3, 7))
            assert np.array_equal(got, next(open_streams(seed, [i])).standard_normal((3, 7)))
            assert np.array_equal(got, numpy_stream(seed, i).standard_normal((3, 7)))

    def test_streams_are_numpy_philox_streams(self):
        for i, gen in enumerate(open_streams(9, range(3))):
            assert np.array_equal(gen.standard_normal(1001),
                                  numpy_stream(9, i).standard_normal(1001))
        assert np.array_equal(next(open_streams(9, [2])).standard_normal(1001),
                              numpy_stream(9, 2).standard_normal(1001))

    def test_reset_clears_buffered_output(self):
        # integer and uniform draws leave words buffered in the bit generator
        streams = open_streams(4, [0, 1])
        gen = next(streams)
        gen.integers(0, 7, size=3, dtype=np.uint32)
        gen.random()
        gen = next(streams)
        assert np.array_equal(gen.standard_normal(50), numpy_stream(4, 1).standard_normal(50))


class TestOneStream:
    @staticmethod
    def draw(seed, stream_id, size=None):
        return next(open_streams(seed, [stream_id])).standard_normal(size)

    def test_same_key_same_stream(self):
        assert np.array_equal(self.draw(42, 3, 100), self.draw(42, 3, 100))

    def test_distinct_streams_differ(self):
        assert not np.array_equal(self.draw(42, 0, 100), self.draw(42, 1, 100))

    def test_block_draw_equals_scalar_draws(self):
        # pre-drawing a schedule must consume the stream identically
        block = self.draw(7, 5, (4, 3))
        gen = next(open_streams(7, [5]))
        singles = np.array([[gen.standard_normal() for _ in range(3)] for _ in range(4)])
        assert np.array_equal(block, singles)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            self.draw(-1, 0)
        with pytest.raises(ValueError):
            self.draw(0, -2)

    def test_large_sample_moments(self):
        draws = self.draw(123, 0, 1_000_000)
        assert abs(draws.mean()) < 0.004
        assert abs(draws.var() - 1.0) < 0.006


def floored(mean, sigma, eps):
    """One factor draw as the entrant product takes it: max(0, mean + sigma*eps)."""
    return entrant_product(np.array([mean]), np.array([sigma]), np.array([float(eps)]))


class TestTruncatedAffine:
    def test_zero_eps_returns_mean(self):
        assert floored(0.5110, 0.1996, 0.0) == 0.5110

    def test_floor_at_zero(self):
        assert floored(0.5, 0.2, -3.0) == 0.0

    def test_hand_value(self):
        assert floored(0.0085, 0.0007, 2.0) == pytest.approx(0.0099)

    def test_may_exceed_one(self):
        # ratios above 1 are legal and must not be clamped
        assert floored(0.9, 0.2, 1.0) == pytest.approx(1.1)

    def test_sigma_zero_collapses(self):
        for eps in (-10.0, 0.0, 10.0):
            assert floored(0.3, 0.0, eps) == 0.3

    @given(st.floats(0.0, 2.0), st.floats(0.0, 1.0),
           st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_nonnegative_and_monotone_in_eps(self, mean, sigma, e1, e2):
        lo, hi = sorted((e1, e2))
        a, b = floored(mean, sigma, lo), floored(mean, sigma, hi)
        assert a >= 0.0 and b >= 0.0
        assert a <= b


class TestAr1:
    def test_step_from_zero(self):
        p = Ar1Params(phi=-0.612, sigma=0.03667)
        assert ar1_path(p, [1.0])[0] == pytest.approx(0.03667)

    def test_step_pure_reversion(self):
        p = Ar1Params(phi=-0.612, sigma=0.03667, x0=0.1)
        assert ar1_path(p, [0.0])[0] == pytest.approx(-0.0612)

    def test_step_degenerate(self):
        p = Ar1Params(phi=0.0, sigma=0.0, x0=5.0)
        assert ar1_path(p, [3.0])[0] == 0.0

    def test_stationary_std(self):
        assert ar1_stationary_std(Ar1Params(phi=0.0, sigma=1.0)) == pytest.approx(1.0)
        assert ar1_stationary_std(Ar1Params(phi=0.99, sigma=0.0)) == 0.0
        got = ar1_stationary_std(Ar1Params(phi=-0.612, sigma=0.03667))
        assert got == pytest.approx(0.046366, abs=5e-6)

    @pytest.mark.parametrize("phi", [1.2, 1.0, -1.0])
    def test_nonstationary_rejected(self, cfg, phi):
        with pytest.raises(ConfigError) as exc:
            cfg.edit({"economics.return_deviations.phi": phi})
        assert exc.value.messages == [
            f"economics.return_deviations.phi: must lie within (-1, 1) for stationarity, got {phi}"]

    def test_path_matches_stepwise(self):
        p = Ar1Params(phi=-0.5, sigma=0.3, x0=0.2)
        eps = next(open_streams(9, [0])).standard_normal(40)
        path = ar1_path(p, eps)
        x = p.x0
        for t in range(40):
            x = p.phi * x + p.sigma * eps[t]
            assert path[t] == x

    def test_path_batch_shape(self):
        p = Ar1Params(phi=0.3, sigma=1.0)
        eps = next(open_streams(4, [0])).standard_normal((5, 20))
        paths = ar1_path(p, eps)
        assert paths.shape == (5, 20)
        # each row is the path of its own shock row
        for i in range(5):
            assert np.array_equal(paths[i], ar1_path(p, eps[i]))

    def test_zero_shocks_decay_from_x0(self):
        p = Ar1Params(phi=0.5, sigma=1.0, x0=1.0)
        path = ar1_path(p, np.zeros(4))
        assert np.allclose(path, [0.5, 0.25, 0.125, 0.0625])

    @settings(deadline=None)
    @given(st.floats(-0.95, 0.95), st.floats(0.0, 1.0))
    def test_step_linear_in_eps(self, phi, sigma):
        p = Ar1Params(phi=phi, sigma=sigma, x0=1.0)
        assert ar1_path(p, [2.0])[0] == pytest.approx(phi + 2 * sigma)
