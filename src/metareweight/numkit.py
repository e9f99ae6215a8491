"""Field, memory and vector checks, and a portable counter-based PRNG.

Vectors are float64 numpy arrays, 1-D or a 2-D stack of them (one per
row).  ``as_vec`` validates shape and finiteness once at the boundary so
the numerical code can assume well-formed arrays.

Randomness comes from an in-repo SplitMix64 generator rather than the
platform default: the stream is a pure function of a 64-bit seed and a
64-bit counter, so identical seeds reproduce identical results on any
platform and any numpy version, and bulk draws vectorize.  Generators
are not shared between concurrent tasks; derive one per task with
``Rng.spawn(stream_id)``.

A draw is a read and a transform.  ``Rng.next_u64s`` reads the next
stream words; ``to_uniforms``, ``to_normals`` (Box-Muller, one normal per
pair of words) and ``to_ints`` turn words into values, each word or pair
on its own.  ``Rng.uniforms``, ``gaussians`` and ``randints`` are a read
followed by its transform.  Because a read of a + b words is the read of
a words followed by the read of b, and a transform works word by word,
one read cut into pieces and transformed piece by piece gives the values
of the draws taken one by one, bit for bit.  A caller that needs many
small draws (``verify``'s random instances) takes them as one read: the
per-call cost of a read is far above its per-word cost.
"""

from __future__ import annotations

import operator
import os

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SPAWN_SALT = 0x5851F42D4C957F2D

_GAMMA_U64 = np.uint64(_GAMMA)
_MUL1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2_U64 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

_INV_2_53 = 1.0 / float(1 << 53)
_GAUSSIAN_CHUNK = 1 << 14  # normals per chunk, from 2**15 uniforms


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (multiplication wraps mod
    2^64), in place: returns ``z``, mixed."""
    z ^= z >> _S30
    z *= _MUL1_U64
    z ^= z >> _S27
    z *= _MUL2_U64
    z ^= z >> _S31
    return z


def _u64(value: int, name: str) -> np.ndarray:
    """``value``, a Python or numpy integer, as a one-element uint64 array;
    it must lie in [0, 2**64)."""
    try:
        v = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= v <= _MASK:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return np.array([v], dtype=np.uint64)


def _size(size) -> int:
    """``size`` as a count of draws: an integer >= 0."""
    try:
        n = operator.index(size)
    except TypeError:
        raise TypeError(f"size must be an integer, got {size!r}") from None
    if n < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    return n


def to_uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1): the top 53 bits of each uint64 word."""
    return (words >> _S11).astype(np.float64) * _INV_2_53


def to_normals(words: np.ndarray) -> np.ndarray:
    """Box-Muller normals, one from each pair of words along the last axis
    (its length must be even): the uniforms (u1, u2) of a pair give
    sqrt(-2 log(1 - u1)) cos(2 pi u2)."""
    u = to_uniforms(words)
    return np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2])) * np.cos(2.0 * np.pi * u[..., 1::2])


def to_ints(words: np.ndarray, n: int) -> np.ndarray:
    """Integers in [0, n): each word modulo n.  The modulo bias is
    < n/2^64, negligible here."""
    if n <= 0:
        raise ValueError(f"randint requires n >= 1, got {n}")
    return (words % np.uint64(n)).astype(np.int64)


class Rng:
    """Deterministic SplitMix64 stream.

    Output k of seed s is ``_mix64(s + (k+1)*GAMMA mod 2^64)``.  Every draw
    is a bulk draw: it takes the next ``size`` outputs and advances the
    counter by ``size``, so draws in pieces give the stream of one draw.
    """

    __slots__ = ("_seed", "_state")

    def __init__(self, seed: int):
        self._seed = int(_u64(seed, "seed")[0])
        self._state = self._seed

    @property
    def seed(self) -> int:
        return self._seed

    def spawn(self, stream_id: int) -> "Rng":
        """Child generator decorrelated from this one and from other ids.

        Derivation uses only the parent's seed, never its position, so the
        same (seed, stream_id) pair always names the same stream.
        """
        salted = _u64(stream_id, "stream id") ^ np.uint64(_SPAWN_SALT)
        return Rng(int(_mix64(_u64(self._seed, "seed") ^ _mix64(salted))[0]))

    # -- draws ----------------------------------------------------------------

    def next_u64s(self, size: int) -> np.ndarray:
        """The next ``size`` stream words, as uint64."""
        size = _size(size)
        ks = np.arange(1, size + 1, dtype=np.uint64)
        out = _mix64(np.uint64(self._state) + _GAMMA_U64 * ks)
        self._state = (self._state + size * _GAMMA) & _MASK
        return out

    def uniforms(self, size: int) -> np.ndarray:
        """Doubles in [0, 1), one per word (``to_uniforms``)."""
        return to_uniforms(self.next_u64s(size))

    def gaussians(self, size: int) -> np.ndarray:
        """Standard normals, two words each (``to_normals``), read in
        chunks: the stream of one read."""
        size = _size(size)
        out = np.empty(size)
        for lo in range(0, size, _GAUSSIAN_CHUNK):
            words = self.next_u64s(2 * min(_GAUSSIAN_CHUNK, size - lo))
            out[lo:lo + _GAUSSIAN_CHUNK] = to_normals(words)
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        return int(self.randints(1, n)[0])

    def randints(self, size: int, n: int) -> np.ndarray:
        """Integers in [0, n), one per word (``to_ints``)."""
        return to_ints(self.next_u64s(size), n)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): the stable argsort of n uniform keys.

        The default (unstable) argsort gives it whenever no two keys are
        equal, because then only one order sorts them; if two sorted keys
        are equal, the order within their tie decides, and the stable sort
        is taken."""
        keys = self.uniforms(n)
        order = np.argsort(keys)
        ranked = keys[order]
        if np.any(ranked[1:] == ranked[:-1]):
            order = np.argsort(keys, kind="stable")
        return order


# -- array validation ---------------------------------------------------------


class FieldError(ValueError):
    """A field value its dataclass rejects; ``field`` names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_fields(obj, names, ok, rule: str) -> None:
    """FieldError naming the first field of ``obj`` in ``names`` whose value
    fails ``ok``, with the ``rule`` it breaks and the value."""
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise FieldError(name, f"{name} must {rule}, got {value}")


def check_fits(need: int, name: str, holder: str) -> None:
    """FieldError on ``name`` when ``need`` bytes, what ``holder`` would
    hold, exceed the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise FieldError(name, f"{name} is too large: {holder} would hold at least "
                         f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB "
                         "of physical memory")


def as_vec(x, name: str = "vector") -> np.ndarray:
    """``x`` as a finite float64 vector, or a 2-D stack of them (one per
    row)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v
