"""Counter-based random streams.

Every stochastic draw in the simulator comes from a stream addressed by a
key path such as (campaign_seed, "phase3", core, run_index, "fault").  The
path is hashed into a Philox key, so any stream can be reconstructed in
isolation: trials can run in parallel, in any order, and still consume
exactly the same random numbers they would have consumed serially.

A fresh Philox pays for a throwaway `SeedSequence` seeded from OS entropy
even when it is given a key, so code that opens many streams in a row can
build one generator with `stream` and move it to each later key path with
`rekey`, which leaves it in exactly the state `stream` would have built.
Phase 1 re-keys one generator per search this way; its key paths are the
ones it would hand to `stream`.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_key(seed: int, *path) -> np.ndarray:
    """Hash (seed, *path) into a 2x64-bit Philox key.

    Path elements must be ints or strings; floats are refused because their
    repr is a portability hazard in a key.
    """
    for part in path:
        if not isinstance(part, (int, str)):
            raise TypeError(f"stream path element {part!r} must be int or str")
    text = repr((int(seed),) + tuple(path))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def stream(seed: int, *path) -> np.random.Generator:
    """A fresh Generator for the given key path.

    Same (seed, path) always yields an identical sequence; distinct paths
    are statistically independent.
    """
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def rekey(gen: np.random.Generator, seed: int, *path) -> np.random.Generator:
    """Move a Philox-backed `gen` to the start of the stream for (seed, *path).

    Afterwards `gen` draws exactly what `stream(seed, *path)` draws: the
    derived key, counter 0, an empty output buffer and no held 32-bit half,
    whatever `gen` had drawn before.  Returns `gen`.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": derive_key(seed, *path)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
