"""Counter-based random streams.

Every stochastic draw in the simulator comes from a stream addressed by a
key path such as (campaign_seed, "phase3", core, run_index).  The path is
hashed into a 16-byte key, and block `c` of the stream is
`shake_128(key || c)` (FIPS 202, `c` as 8 little-endian bytes), read as
little-endian 64-bit words whose top 53 bits make one double in [0, 1).
Block `c` holds `min(8 << c, 1024)` words, so a stream that draws a few
variates hashes once, when it is opened.  A word becomes its double only
when it is drawn, so a stream pays for the doubles it hands out, not for
its whole block.  Any stream is rebuilt from its key path alone (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011): runs can
execute in any order and draw what they would draw serially, and opening a
stream costs one hash, so every run and search level opens its own.

A `Stream` offers the part of numpy's `Generator` interface the simulator
calls (`random`, `uniform`, `geometric`, `binomial`), so a numpy Generator
can stand in for one anywhere, as the tests' distribution oracle does.  Both
samplers are exact in distribution: a geometric is one inversion, and a
binomial an inversion when n p < 10 and otherwise Hörmann's BTRD ("The
generation of binomial random variates", 1993), a few uniforms at any n.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct

_SCALE = 2.0**-53  # one unit in the last place of a 53-bit double in [0, 1)
_FIRST_BLOCK, _DOUBLINGS = 8, 7  # block c holds 8 << min(c, 7) words
# The unpacker of block c, by min(c, _DOUBLINGS): little-endian 64-bit words.
_BLOCKS = tuple(struct.Struct(f"<{_FIRST_BLOCK << c}Q") for c in range(_DOUBLINGS + 1))
_KEY_PARTS = (int, str)  # the types a path element may have
_NEVER = 1 << 1024  # past every finite inversion, so past every budget


def derive_key(seed: int, *path) -> bytes:
    """Hash (seed, *path) into a 16-byte stream key.

    The seed must be an integer (an `int` or anything with `__index__`,
    such as a numpy integer) and path elements ints or strings; a float is
    refused in either place, since a fraction would otherwise be dropped
    and a float's repr is a portability hazard in a key.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"stream seed {seed!r} must be an integer") from None
    for part in path:
        if not isinstance(part, _KEY_PARTS):
            raise TypeError(f"stream path element {part!r} must be int or str")
    text = repr((seed, *path))
    return hashlib.sha256(text.encode("utf-8")).digest()[:16]


def stream(seed: int, *path) -> Stream:
    """A fresh stream for the given key path.

    Same (seed, path) always yields an identical sequence; distinct paths
    are statistically independent.
    """
    return Stream(derive_key(seed, *path))


# Stirling-series remainders fc(k) = log k! - (k + 1/2) log(k + 1) + (k + 1)
# - log(2 pi) / 2, from `lgamma` where the series is still coarse.
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_FC = tuple(math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1) - _HALF_LOG_2PI
            for k in range(10))


def _fc(k: int) -> float:
    if k < 10:
        return _FC[k]
    rr = 1.0 / ((k + 1) * (k + 1))
    return (1.0 / 12 - (1.0 / 360 - rr / 1260) * rr) / (k + 1)


def _log_pmf_ratio(n: int, k: int, m: int, r: float) -> float:
    """log(f(k) / f(m)) for the Binomial(n, p) pmf f, with r = p / (1 - p),
    by Stirling's series: BTRD's final acceptance test."""
    nm, nk = n - m + 1, n - k + 1
    return ((m + 0.5) * math.log((m + 1) / (r * nm)) + (n + 1) * math.log1p((k - m) / nk)
            + (k + 0.5) * math.log(nk * r / (k + 1)) + _fc(m) + _fc(n - m) - _fc(k) - _fc(n - k))


class Stream:
    """The doubles of one key, drawn in order; see the module docstring.
    The current block is kept as its words, block 0 from the start, and
    each word drawn becomes one double, `(word >> 11) * 2**-53`."""

    __slots__ = ("_key", "_block", "_words", "_pos")

    def __init__(self, key: bytes):
        self._key = key
        self._block = 0
        self._refill()

    def _refill(self) -> None:
        unpack = _BLOCKS[min(self._block, _DOUBLINGS)]
        data = hashlib.shake_128(self._key + self._block.to_bytes(8, "little")).digest(unpack.size)
        self._words = unpack.unpack(data)
        self._block += 1
        self._pos = 0

    def random(self, size: int | None = None):
        """The next double in [0, 1), or a list of the next `size`."""
        if size is None:
            if self._pos == len(self._words):
                self._refill()
            self._pos += 1
            return (self._words[self._pos - 1] >> 11) * _SCALE
        if size < 0:
            raise ValueError(f"negative size {size}")
        out = [(w >> 11) * _SCALE for w in self._words[self._pos:self._pos + size]]
        self._pos += len(out)
        while len(out) < size:
            self._refill()
            self._pos = min(size - len(out), len(self._words))
            out += [(w >> 11) * _SCALE for w in self._words[:self._pos]]
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """`low + (high - low) * random(size)`, elementwise for a list."""
        if size is None:
            return low + (high - low) * self.random()
        return [low + (high - low) * u for u in self.random(size)]

    def geometric(self, p: float) -> int:
        """Trials up to and including the first success, each a success
        with chance `p` in (0, 1]: one uniform, by inversion (`_NEVER` if
        that overflows, as it may at a subnormal `p`)."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric chance {p} outside (0, 1]")
        u = self.random()
        if p == 1.0:
            return 1
        trials = math.log1p(-u) / math.log1p(-p)
        return int(trials) + 1 if trials < math.inf else _NEVER

    def binomial(self, n: int, p: float) -> int:
        """Successes in `n` trials, each with chance `p` in [0, 1].  Draws
        nothing when the count is certain (n = 0, p = 0 or p = 1)."""
        if n < 0 or not 0.0 <= p <= 1.0:
            raise ValueError(f"binomial needs n >= 0 and p in [0, 1], not ({n}, {p})")
        if p > 0.5:  # 1 - p is exact here
            return n - self.binomial(n, 1.0 - p)
        if n == 0 or p == 0.0:
            return 0
        return self._inversion(n, p) if n * p < 10.0 else self._btrd(n, p)

    def _inversion(self, n: int, p: float) -> int:
        """Sequential search from 0: one uniform, about n p + 1 steps."""
        r = p / (1.0 - p)
        g = r * (n + 1)
        f0 = math.exp(n * math.log1p(-p))
        while True:
            u, f = self.random(), f0
            for k in range(n + 1):
                if u < f:
                    return k
                u -= f
                f *= g / (k + 1) - r
                if f <= 0.0:
                    break  # rounding left `u` past the last mass: draw again

    def _btrd(self, n: int, p: float) -> int:
        """Hörmann's algorithm BTRD, for p <= 1/2 and n p >= 10: transformed
        rejection with a squeeze, the pmf recurrence near the mode and a
        Stirling-series test far from it."""
        q = 1.0 - p
        npq = n * p * q
        spq = math.sqrt(npq)
        b = 1.15 + 2.53 * spq
        a = -0.0873 + 0.0248 * b + 0.01 * p
        c = n * p + 0.5
        alpha = (2.83 + 5.1 / b) * spq
        v_r = 0.92 - 4.2 / b
        m = int((n + 1) * p)
        r = p / q
        nr = (n + 1) * r
        while True:
            v = self.random()
            if v <= 0.86 * v_r:  # under the density everywhere: accept at once
                u = v / v_r - 0.43
                return math.floor((2.0 * a / (0.5 - abs(u)) + b) * u + c)
            if v >= v_r:
                u = self.random() - 0.5
            else:
                u = v / v_r - 0.93
                u = math.copysign(0.5, u) - u
                v = self.random() * v_r
            us = 0.5 - abs(u)
            k = math.floor((2.0 * a / us + b) * u + c)
            if not 0 <= k <= n:
                continue
            v *= alpha / (a / (us * us) + b)
            km = abs(k - m)
            if km <= 15:  # f(k) / f(m) by the recurrence
                f = 1.0
                for i in range(m + 1, k + 1):
                    f *= nr / i - r
                for i in range(k + 1, m + 1):
                    v *= nr / i - r
                if v <= f:
                    return k
                continue
            v = math.log(v) if v > 0.0 else -math.inf
            rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5)
            t = -km * km / (2.0 * npq)
            if v < t - rho:
                return k
            if v <= t + rho and v <= _log_pmf_ratio(n, k, m, r):
                return k
