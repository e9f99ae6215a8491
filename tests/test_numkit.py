import tracemalloc

import numpy as np
import pytest

from metareweight.numkit import _GAUSSIAN_CHUNK, Rng, as_vec, to_ints, to_normals, to_uniforms

# Published SplitMix64 outputs (the reference generator's first draws).
SPLITMIX64_VECTORS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    1234567: [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77],
}
OUT_OF_RANGE = [-1, 2**64, 99999999999999999999999]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def one_shot_gaussians(rng, size, std):
    """Box-Muller on one draw of all ``2 * size`` uniforms."""
    raw = (rng.next_u64s(2 * size) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u1, u2 = 1.0 - raw[0::2], raw[1::2]
    return std * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


class TestAsVec:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vec([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            as_vec([np.inf, 0.0])

    def test_rejects_non_vectors(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            as_vec([[[1.0, 2.0]]])
        with pytest.raises(ValueError, match="1-D or 2-D"):
            as_vec(1.0)
        assert np.array_equal(as_vec([1, 2]), [1.0, 2.0])
        assert np.array_equal(as_vec([[1, 2]]), [[1.0, 2.0]])


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(7).next_u64s(100), Rng(7).next_u64s(100))

    @pytest.mark.parametrize("seed", sorted(SPLITMIX64_VECTORS))
    def test_published_splitmix64_vectors(self, seed):
        want = SPLITMIX64_VECTORS[seed]
        assert Rng(seed).next_u64s(len(want)).tolist() == want

    def test_draws_in_pieces_equal_one_draw(self):
        pieces = Rng(123)
        vals = np.concatenate([pieces.next_u64s(n) for n in (0, 1, 5, 0, 58)])
        assert np.array_equal(vals, Rng(123).next_u64s(64))
        pieces = Rng(123)
        ints = [pieces.randint(7) for _ in range(64)]
        assert ints == Rng(123).randints(64, 7).tolist()
        assert all(type(i) is int for i in ints)

    @pytest.mark.parametrize("value", OUT_OF_RANGE)
    def test_seed_outside_64_bits_rejected(self, value):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\), got "
                                             + str(value)):
            Rng(value)
        with pytest.raises(ValueError, match=r"stream id must lie in \[0, 2\*\*64\)"):
            Rng(1).spawn(value)

    def test_seed_bounds_accepted(self):
        for value in (0, 2**64 - 1):
            assert Rng(value).seed == value
            assert 0 <= Rng(1).spawn(value).seed < 2**64
            assert Rng(value).spawn(value).next_u64s(2).dtype == np.uint64

    def test_uniform_range_and_distinct(self):
        rng = Rng(7)
        x, y = rng.uniforms(2)
        assert x != y
        assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0

    def test_uniform_mean(self):
        u = Rng(99).uniforms(100_000)
        assert abs(u.mean() - 0.5) < 0.01
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_gaussian_moments(self):
        g = Rng(5).gaussians(100_000)
        assert abs(g.mean()) < 0.02
        assert abs(g.std() - 1.0) < 0.02

    @pytest.mark.parametrize("size", [0, 1, _GAUSSIAN_CHUNK - 1, _GAUSSIAN_CHUNK,
                                      _GAUSSIAN_CHUNK + 1, 2 * _GAUSSIAN_CHUNK + 3,
                                      5 * _GAUSSIAN_CHUNK])
    def test_chunked_gaussians_equal_one_draw(self, size):
        chunked, one_shot = Rng(17), Rng(17)
        assert np.array_equal(1.5 * chunked.gaussians(size),
                              one_shot_gaussians(one_shot, size, 1.5))
        # the transform of one read has the bits of the chunked draw
        assert np.array_equal(bits(to_normals(Rng(17).next_u64s(2 * size))),
                              bits(Rng(17).gaussians(size)))
        # both leave the stream at the same position
        assert np.array_equal(chunked.gaussians(7), one_shot_gaussians(one_shot, 7, 1.0))

    def test_transforms_of_one_read_equal_the_draws(self):
        words = Rng(5).next_u64s(60)
        drawn = Rng(5)
        assert np.array_equal(bits(to_uniforms(words[:20])), bits(drawn.uniforms(20)))
        assert np.array_equal(bits(to_normals(words[20:40])), bits(drawn.gaussians(10)))
        assert np.array_equal(to_ints(words[40:], 7), drawn.randints(20, 7))
        assert to_ints(words, 7).dtype == np.int64
        # a 2-D read transforms row by row, in pairs along the last axis
        rows = to_normals(words.reshape(3, 20))
        assert np.array_equal(bits(rows.ravel()), bits(Rng(5).gaussians(30)))

    @pytest.mark.parametrize("draw", ["next_u64s", "uniforms", "gaussians", "randints"])
    def test_sizes_must_be_nonnegative_integers(self, draw):
        rng = Rng(2)
        call = getattr(rng, draw)
        args = (3,) if draw == "randints" else ()
        with pytest.raises(TypeError, match=r"^size must be an integer, got 2\.5$"):
            call(2.5, *args)
        with pytest.raises(ValueError, match="^size must be >= 0, got -1$"):
            call(-1, *args)
        assert call(np.int64(2), *args).shape == (2,)
        assert call(0, *args).shape == (0,)

    def test_randints_need_a_positive_bound(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match=f"^randint requires n >= 1, got {n}$"):
                Rng(2).randints(4, n)

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
        root.next_u64s(1)  # consuming the parent must not change spawns
        child_a2 = Rng(42).spawn(1)
        assert child_a.seed == child_a2.seed
        assert Rng(42).spawn(2).seed != child_a.seed
        xs = Rng(42).spawn(1).uniforms(1000)
        ys = Rng(42).spawn(2).uniforms(1000)
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.1


class TestPermutationFastPath:
    """The default-kind argsort against the stable one it replaced, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 1000, 20_000])
    def test_permutation_equals_stable_argsort(self, n):
        keys = Rng(6).uniforms(n)
        assert np.array_equal(Rng(6).permutation(n), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("tied", ["one pair", "many"])
    def test_permutation_with_tied_keys_takes_the_stable_order(self, monkeypatch, tied):
        keys = Rng(2).uniforms(5000)
        if tied == "one pair":
            keys[4000] = keys[17]
        else:
            keys = np.floor(8.0 * keys)
        monkeypatch.setattr(Rng, "uniforms", lambda self, size: keys[:size].copy())
        assert np.array_equal(Rng(0).permutation(keys.size), np.argsort(keys, kind="stable"))


class TestIntegerSeeds:
    @pytest.mark.parametrize("value", [1.5, 2.0, "12", np.float64(3.0), None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(TypeError, match="^seed must be an integer, got "):
            Rng(value)
        with pytest.raises(TypeError, match="^stream id must be an integer, got "):
            Rng(3).spawn(value)

    def test_numpy_integers_accepted(self):
        assert Rng(np.uint64(2**64 - 1)).seed == 2**64 - 1
        assert type(Rng(np.int64(7)).seed) is int
        assert Rng(np.int32(7)).spawn(np.int64(1)).seed == Rng(7).spawn(1).seed
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            Rng(np.int64(-1))
