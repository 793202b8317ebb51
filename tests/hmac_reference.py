"""A lane-parallel MAC pass, kept as a test oracle.

`victims.run_hmac_victim` counts a try as a success whenever its fault set
is nonempty and computes neither the set nor the faulted MAC; a run draws
only its crash try and one binomial count of successes.  `macs_with_keys`
recomputes many faulted MACs at once, each fault set one lane of numpy
`uint32` arrays (FIPS 180-4 arithmetic, wrapping mod 2**32).  Tests hold
the lanes equal to the scalar `HmacContext.mac_with_faults`, use them to
check the premise that every nonempty fault set changes the MAC, and give
the slice-level loop of `slice_reference` its HMAC verdicts.
"""

import numpy as np

from voltlab.sha256sim import _H0, _K, EVENTS_PER_BLOCK, MASK32, SCHEDULE_EVENTS

DIGEST_BYTES = 32


def store_events(ctx) -> tuple:
    """(block, event-in-block) of each global store-event index of `ctx`,
    in `HmacContext._fault_key`'s order."""
    return tuple(divmod(g, EVENTS_PER_BLOCK) for g in range(ctx.total_events))


# ---------------------------------------------------------------------------
# The lane pass

_K_LANES = np.array(_K, dtype=np.uint32)


def _rotr(x: np.ndarray, n: int) -> np.ndarray:
    return (x >> n) | (x << (32 - n))


def _expand_lanes(words: list[np.ndarray]) -> list[np.ndarray]:
    """Schedule words W0..W63 from W0..W15, each a uint32 lane array."""
    w = list(words)
    for i in range(16, 64):
        x, y = w[i - 15], w[i - 2]
        s0 = _rotr(x, 7) ^ _rotr(x, 18) ^ (x >> 3)
        s1 = _rotr(y, 17) ^ _rotr(y, 19) ^ (y >> 10)
        w.append(w[i - 16] + s0 + w[i - 7] + s1)
    return w


def _compress_lanes(state: list[np.ndarray], w, faults: dict | None) -> list[np.ndarray]:
    """`compress` over n lanes at once.

    `state` is eight uint32 arrays of n lanes.  `w` is the expanded
    schedule: 64 arrays of n lanes, or of one word shared by every lane.
    `faults` maps an event to (lane indices, four uint32 arrays of XOR
    words, low word first).  As in `compress`, schedule masks land after
    expansion and state masks after the feed-forward.
    """
    n = len(state[0])
    faults = faults or {}
    w = list(w)
    for event, (lanes, words) in faults.items():
        if event < SCHEDULE_EVENTS:
            for j in range(4):
                i = 16 + 4 * event + j
                w[i] = np.full(n, w[i], dtype=np.uint32)
                w[i][lanes] ^= words[j]
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = g ^ (e & (f ^ g))
        t1 = h + s1 + ch + (w[i] + _K_LANES[i])
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) | (c & (a | b))
        h, g, f, e, d, c, b, a = g, f, e, d + t1, c, b, a, t1 + s0 + maj
    out = [s + v for s, v in zip(state, (a, b, c, d, e, f, g, h))]
    for event in (SCHEDULE_EVENTS, SCHEDULE_EVENTS + 1):
        if event in faults:
            lanes, words = faults[event]
            for j in range(4):
                out[4 * (event - SCHEDULE_EVENTS) + j][lanes] ^= words[j]
    return out


def _words(data: bytes) -> np.ndarray:
    """Big-endian 32-bit words of `data` as native uint32."""
    return np.frombuffer(data, dtype=">u4").astype(np.uint32)


def _lane_faults(keys: list[tuple]) -> dict[int, dict[int, tuple]]:
    """block -> event -> (lane indices, XOR words) for `_compress_lanes`,
    where lane i carries the fault key keys[i]."""
    by_store: dict[tuple[int, int], tuple[list, list]] = {}
    for lane, key in enumerate(keys):
        for store, mask in key:
            lanes, masks = by_store.setdefault(store, ([], []))
            lanes.append(lane)
            masks.append(mask)
    out: dict[int, dict[int, tuple]] = {}
    for (blk, event), (lanes, masks) in by_store.items():
        words = np.array(
            [[(m >> shift) & MASK32 for m in masks] for shift in (0, 32, 64, 96)],
            dtype=np.uint32,
        )
        out.setdefault(blk, {})[event] = (np.array(lanes, dtype=np.intp), words)
    return out


def macs_with_keys(ctx, keys: list[tuple]) -> list[bytes]:
    """The MAC of every canonical fault key of `ctx`, in order.

    Each key must be what `ctx._fault_key` returns: ((block, event), mask)
    pairs sorted by store, in range, masks nonzero within 128 bits.
    Nothing here checks that.  The distinct nonempty keys are recomputed
    together in one `_lane_macs` pass, one numpy lane each; empty keys are
    fault-free and make no pass.
    """
    distinct = [k for k in dict.fromkeys(keys) if k]
    macs = _lane_macs(ctx, distinct) if distinct else {}
    return [macs[k] if k else ctx.clean_mac for k in keys]


def _lane_macs(ctx, keys: list[tuple]) -> dict[tuple, bytes]:
    """MAC per canonical fault key, all keys as lanes of one pass.

    Lanes are ordered by their earliest faulted inner block, so the lanes
    live at block b are a prefix; each joins from its own checkpoint.
    Lanes that fault only the outer hash start at `n_inner` with the clean
    inner digest.
    """
    n_inner = ctx.n_inner
    keys = sorted(keys, key=lambda k: k[0][0][0])
    starts = np.minimum([k[0][0][0] for k in keys], n_inner)
    faults = _lane_faults(keys)
    fixed = b"".join(ctx.inner_blocks) + ctx.outer_first_block
    schedules = np.array(
        _expand_lanes(list(_words(fixed).reshape(-1, 16).T)),
        dtype=np.uint32,
    )
    entry = np.vstack([np.array(ctx.checkpoints, dtype=np.uint32), _words(ctx.clean_inner)])
    state = entry[starts].T.copy()
    for blk in range(int(starts[0]), n_inner):
        live = int(np.searchsorted(starts, blk, side="right"))
        state[:, :live] = _compress_lanes(
            list(state[:, :live]), schedules[:, blk : blk + 1], faults.get(blk)
        )
    n = len(keys)
    outer = _compress_lanes(
        [np.full(n, word, dtype=np.uint32) for word in _H0],
        schedules[:, n_inner : n_inner + 1],
        faults.get(n_inner),
    )
    pad = _words(ctx._outer_tail_block(bytes(DIGEST_BYTES)))
    tail = list(state) + [np.full(n, word, dtype=np.uint32) for word in pad[8:]]
    outer = _compress_lanes(outer, _expand_lanes(tail), faults.get(n_inner + 1))
    digests = np.array(outer, dtype=">u4").T.tobytes()
    return {
        key: digests[i * DIGEST_BYTES : (i + 1) * DIGEST_BYTES]
        for i, key in enumerate(keys)
    }
