"""How fast the host runs simulator-shaped Python right now.

Shared hosts drift: the same operation can take 30% longer for a minute
while a neighbour is busy.  The benchmark runs `chunk()` before and after
every timed sample and scales the sample by REFERENCE_S over the mean of
the two chunk times, so a reported time reads as seconds on a host where
one chunk takes exactly REFERENCE_S.  The raw times are printed beside.

The kernel mixes the three kinds of work the simulator spends its host
time on: 32-bit integer rounds in pure Python (SHA-256 compression),
small numpy Generator draws (flip patterns, geometric and binomial
draws) and dict-keyed register updates (the mini-ISA interpreter).  It is
frozen: it imports nothing from voltlab, so no change to the package can
move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.1

_M = 0xFFFFFFFF
_K = tuple((i * 0x9E3779B1 + 0x428A2F98) & _M for i in range(64))
_P = np.linspace(1.0, 2.0, 128) / np.linspace(1.0, 2.0, 128).sum()
_BUCKETS = np.array([0.6, 0.3, 0.1])


def _rounds(state, words):
    a, b, c, d, e, f, g, h = state
    w = list(words)
    for i in range(16, 64):
        x, y = w[i - 15], w[i - 2]
        s0 = ((x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)) & _M
        s1 = ((y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)) & _M
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _M)
    for i in range(64):
        s1 = ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)) & _M
        ch = (e & f) ^ (~e & g)
        t1 = (h + s1 + ch + _K[i] + w[i]) & _M
        s0 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)) & _M
        maj = (a & b) ^ (a & c) ^ (b & c)
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & _M, c, b, a, (t1 + s0 + maj) & _M
    return (a, b, c, d, e, f, g, h)


def _kernel() -> int:
    state = tuple(range(8))
    for i in range(220):
        state = _rounds(state, [(i * j + 1) & _M for j in range(16)])
    gen = np.random.Generator(np.random.Philox(key=7))
    total = 0
    for _ in range(900):
        k = 1 + int(gen.choice(3, p=_BUCKETS))
        bits = gen.choice(128, size=k, replace=False, p=_P)
        total += len(frozenset(int(b) for b in bits)) + int(gen.geometric(0.01))
    regs = {f"r{i}": i for i in range(16)}
    for i in range(90_000):
        key = f"r{i & 15}"
        regs[key] = (regs[key] + i) & _M
    return state[0] ^ total ^ regs["r0"]


def chunk() -> float:
    """Host seconds for one run of the frozen kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
