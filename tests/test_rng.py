"""Keyed random streams: `derive_key`, `stream` and the samplers a `Stream` offers."""

import hashlib
import math
import struct

import numpy as np
import pytest
from scipy.stats import binom, geom

from helpers import goodness_of_fit_p
from voltlab import rng as vrng
from voltlab.orchestrator import phase1_find_window

# Each sampler test below passes at this level.  The seeds are fixed, so a
# verdict is reproducible; a change to the stream or a sampler redraws
# every sample.
ALPHA = 1e-4

# Cumulative levels the samples are binned at: both tails down to one in a
# thousand, and deciles between.
_LEVELS = (1e-3, 0.01, 0.05, *(i / 10 for i in range(1, 10)), 0.95, 0.99, 1 - 1e-3)


def test_derive_key_refuses_a_float_path_element():
    with pytest.raises(TypeError, match="must be int or str"):
        vrng.derive_key(0, "phase1", 1.5)
    with pytest.raises(TypeError, match="must be int or str"):
        vrng.stream(0, "phase1", -120.0)


@pytest.mark.parametrize(
    "seed", [7.5, 7.0, "7", float("nan"), None],
    ids=["fraction", "whole-float", "str", "nan", "none"],
)
def test_derive_key_refuses_a_seed_that_is_not_an_integer(seed):
    # A fraction would be dropped (7.5 would key as 7), a string coerced
    # and a nan refused with a bare ValueError; each is a TypeError instead.
    with pytest.raises(TypeError, match="must be an integer"):
        vrng.derive_key(seed, "phase1")
    with pytest.raises(TypeError, match="must be an integer"):
        vrng.stream(seed, "phase1")


def test_a_search_refuses_a_fractional_seed():
    with pytest.raises(TypeError, match="must be an integer"):
        phase1_find_window("i7-7700k", "0x1b", seed=7.9)


def test_derive_key_takes_a_numpy_integer_as_its_int():
    assert vrng.derive_key(np.int64(7), "phase1", 3) == vrng.derive_key(7, "phase1", 3)
    assert vrng.derive_key(np.uint8(7), "phase1", 3) == vrng.derive_key(7, "phase1", 3)


def test_a_stream_is_shake128_in_counter_mode():
    # The key is the first 16 bytes of SHA-256 over the repr of (seed,
    # *path).  Block c is shake_128(key || c), 8 << c doubles up to 1024,
    # each the top 53 bits of a little-endian word.
    key = hashlib.sha256(repr((5, "phase1", "0x1b", 2, -120, 1)).encode()).digest()[:16]
    assert vrng.derive_key(5, "phase1", "0x1b", 2, -120, 1) == key
    sizes = [min(8 << c, 1024) for c in range(9)]
    words = []
    for c, n in enumerate(sizes):
        block = hashlib.shake_128(key + struct.pack("<Q", c)).digest(8 * n)
        words += struct.unpack(f"<{n}Q", block)
    assert vrng.stream(5, "phase1", "0x1b", 2, -120, 1).random(sum(sizes)) == [
        (w >> 11) * 2.0**-53 for w in words
    ]


def test_a_stream_is_rebuilt_from_its_key_path_alone():
    # Single and block draws read one sequence: blocks of any size, across
    # the hash blocks' edges, give what one-by-one draws give.
    gen = vrng.stream(3, "path", 1)
    singles = [gen.random() for _ in range(3000)]
    gen, drawn = vrng.stream(3, "path", 1), []
    for size in (0, 1, 6, 1, 9, 100, 7, 1000, 0, 1500):
        drawn += gen.random(size)
    drawn += [gen.random() for _ in range(3000 - len(drawn))]
    assert drawn == singles
    assert all(0.0 <= u < 1.0 for u in singles)
    assert vrng.stream(3, "path", 2).random(8) != singles[:8]
    assert vrng.stream(4, "path", 1).random(8) != singles[:8]


def test_a_stream_opened_either_way_draws_its_blocks_across_their_edges():
    # A stream hashes block 0 when it is opened, by `stream` or by `Stream`
    # on the key `derive_key` gives.  Both hand out the doubles of the
    # counter-mode blocks, hashed here, across the edges of blocks 0-4,
    # single and sized draws mixed.
    sizes = (None, 7, None, 3, 20, None, None, 40, 1, None, 60)
    for path in (("phase1", "0x1b", 2, -120, 1), ("phase1-stability", "0x08", 0, -300)):
        key = hashlib.sha256(repr((11, *path)).encode()).digest()[:16]
        blocks = [hashlib.shake_128(key + struct.pack("<Q", c)).digest(64 << c) for c in range(5)]
        words = struct.unpack("<248Q", b"".join(blocks))
        want = [(w >> 11) * 2.0**-53 for w in words]
        for gen in (vrng.stream(11, *path), vrng.Stream(vrng.derive_key(11, *path))):
            drawn = []
            for size in sizes:
                drawn += [gen.random()] if size is None else gen.random(size)
            assert drawn == want[:len(drawn)] and len(drawn) > 120, path


def test_uniform_scales_the_stream():
    low, high = -2.5, 4.0
    expected = [low + (high - low) * u for u in vrng.stream(9, "uniform").random(40)]
    gen = vrng.stream(9, "uniform")
    assert [gen.uniform(low, high) for _ in range(20)] + gen.uniform(low, high, 20) == expected
    assert vrng.stream(9, "uniform").uniform(size=5) == vrng.stream(9, "uniform").random(5)


@pytest.mark.parametrize(
    "draw",
    [
        lambda gen: gen.random(-1),
        lambda gen: gen.geometric(0.0),
        lambda gen: gen.geometric(1.5),
        lambda gen: gen.geometric(float("nan")),
        lambda gen: gen.binomial(-1, 0.5),
        lambda gen: gen.binomial(10, -0.1),
        lambda gen: gen.binomial(10, 1.1),
        lambda gen: gen.binomial(10, float("nan")),
    ],
    ids=["size", "geom-0", "geom-1.5", "geom-nan", "binom-n", "binom-p-", "binom-p+", "binom-nan"],
)
def test_samplers_refuse_what_numpy_refuses(draw):
    with pytest.raises(ValueError):
        draw(vrng.stream(0, "refuse"))
    with pytest.raises(ValueError):
        draw(np.random.default_rng(0))


def _tail_bins(dist, n_samples, samples):
    """(observed, expected mass) of `samples` in bins cut at `_LEVELS` of the
    scipy distribution `dist`, the lowest and highest bins holding each
    tail."""
    edges = np.unique(dist.ppf(_LEVELS))
    mass = np.diff(np.concatenate([[0.0], dist.cdf(edges), [1.0]]))
    observed = np.bincount(np.searchsorted(edges, samples), minlength=len(edges) + 1)
    assert observed.sum() == n_samples
    return observed, mass


class _Counting(vrng.Stream):
    """A stream that counts the uniforms it hands out."""

    __slots__ = ("uniforms",)

    def __init__(self, seed, *path):
        super().__init__(vrng.derive_key(seed, *path))
        self.uniforms = 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else size
        return super().random(size)


_NS = [0, 1, 7, 30, 10**4, 10**7]
_PS = [1e-9, 0.01, 0.18, 0.5, 0.82, 1 - 1e-9]


@pytest.mark.parametrize("p", _PS)
@pytest.mark.parametrize("n", _NS)
def test_binomial_follows_scipy(n, p):
    samples = 20_000
    gen = vrng.stream(1, "binomial", n, repr(p))
    draws = [gen.binomial(n, p) for _ in range(samples)]
    assert all(type(k) is int and 0 <= k <= n for k in draws)
    if n == 0:
        assert set(draws) == {0}
        return
    observed, mass = _tail_bins(binom(n, p), samples, draws)
    assert goodness_of_fit_p(observed, mass) > ALPHA


@pytest.mark.parametrize("p", [1.0, 0.5, 0.18, 1e-3, 1e-9])
def test_geometric_follows_scipy(p):
    samples = 20_000
    gen = _Counting(2, "geometric", repr(p))
    draws = [gen.geometric(p) for _ in range(samples)]
    assert gen.uniforms == samples  # one uniform a draw, also when p is 1
    assert all(type(k) is int and k >= 1 for k in draws)
    if p == 1.0:
        assert set(draws) == {1}
        return
    observed, mass = _tail_bins(geom(p), samples, draws)
    assert goodness_of_fit_p(observed, mass) > ALPHA


@pytest.mark.parametrize("p", [5e-324, 2.2e-308 / 3, 1e-300])
def test_geometric_of_a_tiny_chance_is_one_finite_int_per_uniform(p):
    # At a subnormal chance log1p(-u) / log1p(-p) overflows to infinity for
    # almost every u; the draw is then an int past every budget a runner
    # compares it with, and still costs one uniform.  Where the inversion
    # is finite, its value is kept.
    gen = _Counting(4, "tiny", repr(p))
    draws = [gen.geometric(p) for _ in range(200)]
    assert gen.uniforms == 200
    assert all(type(k) is int and k > 10**290 for k in draws)
    us = vrng.stream(4, "tiny", repr(p)).random(200)
    for k, u in zip(draws, us):
        trials = math.log1p(-u) / math.log1p(-p)
        assert k == (int(trials) + 1 if math.isfinite(trials) else 1 << 1024)


@pytest.mark.parametrize(
    "n,p", [(10**7, 0.18), (10**7, 0.5), (10**4, 0.82), (10**4, 0.01), (200, 0.05), (30, 0.5)]
)
def test_binomial_costs_a_few_uniforms_at_any_size(n, p):
    # BTRD, or an inversion below n p = 10, at an expected cost that does
    # not grow with n (about 2.4 uniforms at worst, near n p = 10): the
    # largest campaign the CLI accepts draws binomial(10**7, q) once per run.
    calls = 5_000
    gen = _Counting(3, "cost", n, repr(p))
    for _ in range(calls):
        gen.binomial(n, p)
    assert gen.uniforms / calls < 3.0


def test_btrd_final_test_is_the_log_pmf_ratio():
    # Stirling's series with its remainder table gives log(f(k) / f(m)),
    # where a statistical test could not see an error in the last digits.
    for k in range(10, 2000, 7):
        exact = math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1) - 0.5 * math.log(2 * math.pi)
        assert vrng._fc(k) == pytest.approx(exact, rel=1e-6, abs=1e-13)
    for n, p in [(50, 0.3), (10**4, 0.18), (10**4, 0.5), (10**6, 0.01), (10**7, 0.18)]:
        m, r = int((n + 1) * p), p / (1 - p)
        for k in np.unique(binom.ppf(np.linspace(1e-9, 1 - 1e-9, 101), n, p)).astype(int).tolist():
            # The pmf recurrence f(i) / f(i - 1) = (n - i + 1) / i * r, in logs.
            lo, hi = sorted((m, k))
            steps = math.fsum(math.log((n - i + 1) / i * r) for i in range(lo + 1, hi + 1))
            expected = steps if k >= m else -steps
            assert vrng._log_pmf_ratio(n, k, m, r) == pytest.approx(expected, abs=1e-9), (n, p, k)


def test_binomial_draws_nothing_when_the_count_is_certain():
    gen = _Counting(4, "certain")
    assert [gen.binomial(0, 0.3), gen.binomial(10, 0.0), gen.binomial(10, 1.0)] == [0, 0, 10]
    assert gen.uniforms == 0
