"""Keyed random streams: `stream`, `rekey` and `derive_key`."""

import numpy as np
import pytest

from voltlab import rng as vrng

KEY = (5, "phase1", "0x1b", 2, -120, 1)


def _draws(gen):
    """A mix of draws that read and leave every part of the Philox state."""
    return (
        gen.bit_generator.random_raw(3).tolist(),
        gen.integers(0, 1000, size=3, dtype=np.int32).tolist(),
        gen.random(5).tolist(),
        gen.binomial(56, 0.01, size=7).tolist(),
        int(gen.geometric(0.003)),
        gen.uniform(size=2).tolist(),
    )


# Ways to leave a generator before it is re-keyed: counter advanced and the
# output buffer part-read (odd raw words), a held 32-bit half (`has_uint32`
# 1 after an int32 draw), and the buffers binomial and geometric draws leave.
DIRTY = {
    "fresh": lambda gen: None,
    "odd-raw-words": lambda gen: gen.bit_generator.random_raw(7),
    "int32-draw": lambda gen: gen.integers(0, 10, dtype=np.int32),
    "binomial-block": lambda gen: gen.binomial(280, 0.02, size=1001),
    "geometric-draw": lambda gen: gen.geometric(0.25),
}


@pytest.mark.parametrize("dirty", DIRTY.values(), ids=DIRTY.keys())
def test_rekey_draws_exactly_what_a_fresh_stream_draws(dirty):
    gen = vrng.stream(99, "something", "else")
    dirty(gen)
    assert vrng.rekey(gen, *KEY) is gen
    fresh = vrng.stream(*KEY)
    np.testing.assert_equal(gen.bit_generator.state, fresh.bit_generator.state)
    assert _draws(gen) == _draws(fresh)
    np.testing.assert_equal(gen.bit_generator.state, fresh.bit_generator.state)


def test_derive_key_refuses_a_float_path_element():
    with pytest.raises(TypeError, match="must be int or str"):
        vrng.derive_key(0, "phase1", 1.5)
    gen = vrng.stream(0, "ok")
    with pytest.raises(TypeError, match="must be int or str"):
        vrng.rekey(gen, 0, "phase1", -120.0)
