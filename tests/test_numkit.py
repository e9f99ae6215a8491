import tracemalloc

import numpy as np
import pytest

from metareweight.numkit import _GAUSSIAN_CHUNK, Rng, as_vec, mix64


def one_shot_gaussians(rng, size, mean, std):
    """Box-Muller on one draw of all ``2 * size`` uniforms."""
    raw = (rng.next_u64s(2 * size) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u1, u2 = 1.0 - raw[0::2], raw[1::2]
    return mean + std * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


class TestAsVec:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vec([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            as_vec([np.inf, 0.0])

    def test_rejects_non_vectors(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vec([[1.0, 2.0]])
        assert np.array_equal(as_vec([1, 2]), [1.0, 2.0])


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(7), Rng(7)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_scalar_and_bulk_agree(self):
        scalar = Rng(123)
        vals = [scalar.next_u64() for _ in range(64)]
        assert vals == list(Rng(123).next_u64s(64))
        scalar = Rng(123)
        ints = [scalar.randint(7) for _ in range(64)]
        assert ints == list(Rng(123).randints(64, 7))

    def test_known_mix64_value(self):
        # fixed point of the documented construction: seed 0, first output
        assert Rng(0).next_u64() == mix64(0x9E3779B97F4A7C15)

    def test_uniform_range_and_distinct(self):
        rng = Rng(7)
        x, y = rng.uniforms(2)
        assert x != y
        assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0

    def test_uniform_bounds_error(self):
        with pytest.raises(ValueError):
            Rng(1).uniforms(3, 2.0, 2.0)
        with pytest.raises(ValueError):
            Rng(1).uniforms(3, 1.0, 0.0)

    def test_uniform_mean(self):
        u = Rng(99).uniforms(100_000)
        assert abs(u.mean() - 0.5) < 0.01
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_gaussian_moments(self):
        g = Rng(5).gaussians(100_000)
        assert abs(g.mean()) < 0.02
        assert abs(g.std() - 1.0) < 0.02

    def test_gaussian_zero_std_is_mean(self):
        assert np.all(Rng(2).gaussians(3, 3.25, 0.0) == 3.25)

    def test_gaussian_negative_std_error(self):
        with pytest.raises(ValueError):
            Rng(2).gaussians(3, 0.0, -1.0)

    @pytest.mark.parametrize("size", [0, 1, _GAUSSIAN_CHUNK - 1, _GAUSSIAN_CHUNK,
                                      _GAUSSIAN_CHUNK + 1, 2 * _GAUSSIAN_CHUNK + 3,
                                      5 * _GAUSSIAN_CHUNK])
    def test_chunked_gaussians_equal_one_draw(self, size):
        chunked, one_shot = Rng(17), Rng(17)
        assert np.array_equal(chunked.gaussians(size, 0.25, 1.5),
                              one_shot_gaussians(one_shot, size, 0.25, 1.5))
        # both leave the stream at the same position
        assert np.array_equal(chunked.gaussians(7), one_shot_gaussians(one_shot, 7, 0.0, 1.0))

    def test_gaussians_peak_memory(self):
        rng = Rng(3)
        rng.gaussians(10)
        tracemalloc.start()
        try:
            rng.gaussians(400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2e6 + 2e6  # the output, and chunk temporaries

    def test_randints_in_range(self):
        draws = Rng(8).randints(10_000, 7)
        assert draws.min() >= 0 and draws.max() < 7
        counts = np.bincount(draws, minlength=7)
        assert counts.min() > 10_000 / 7 * 0.8

    def test_permutation_is_permutation(self):
        p = Rng(4).permutation(1000)
        assert np.array_equal(np.sort(p), np.arange(1000))

    def test_spawn_decorrelated_and_stable(self):
        root = Rng(42)
        child_a = root.spawn(1)
        root.next_u64()  # consuming the parent must not change spawns
        child_a2 = Rng(42).spawn(1)
        assert child_a.seed == child_a2.seed
        assert Rng(42).spawn(2).seed != child_a.seed
        xs = Rng(42).spawn(1).uniforms(1000)
        ys = Rng(42).spawn(2).uniforms(1000)
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.1
