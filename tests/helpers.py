"""Shared test utilities."""

import numpy as np

from voltlab.processor import BitFlipPattern

VREGS = [f"%xmm{i}" for i in range(16)]


def random_program_text(gen: np.random.Generator, max_len: int = 50) -> str:
    """Straight-line program mixing pattern ops, stores, and filler.

    Control flow is omitted on purpose: the scan is static, so jumps would
    only thin out the interesting pairs.
    """
    n = int(gen.integers(1, max_len + 1))
    lines = []
    for _ in range(n):
        kind = int(gen.integers(0, 8))
        a, b, c = (VREGS[int(i)] for i in gen.integers(0, 16, size=3))
        addr = f"0x{int(gen.integers(0, 64)) * 16:x}"
        if kind == 0:
            lines.append(f"vpxor {a}, {b}, {c}")
        elif kind == 1:
            lines.append(f"vpand {a}, {b}, {c}")
        elif kind == 2:
            lines.append(f"vpaddq {a}, {b}, {c}")
        elif kind == 3:
            lines.append(f"vpsllq {a}, {b}, {c}")
        elif kind == 4:
            lines.append(f"vmovdqu {a}, {addr}")
        elif kind == 5:
            lines.append(f"movntdq {a}, {addr}")
        elif kind == 6:
            lines.append(f"vmovdqu {addr}, {c}")
        else:
            lines.append(
                ["sfence", "push %r10", "pop %r11", "push %rax"][int(gen.integers(0, 4))]
            )
    return "\n".join(lines) + "\n"


def reference_flip_pattern(profile, core, word_index, rng):
    """The `Generator.choice` sampler that `processor.draw_flip_pattern` replays.

    `draw_flip_pattern` must return the same pattern and leave `rng` in the
    same state; a numpy release that changes how `choice` consumes the
    generator shows up as a mismatch here.
    """
    core = profile.check_core(core)
    bucket = int(rng.choice(3, p=profile.multiplicity[core]))
    if bucket == 0:
        k = 1
    elif bucket == 1:
        k = 2
    else:
        k = 3 + int(rng.binomial(4, 0.2))
    weights = profile.bit_weights(core)
    k = min(k, int(np.count_nonzero(weights)))
    bits = rng.choice(128, size=k, replace=False, p=weights)
    return BitFlipPattern(word_index, frozenset(int(b) for b in bits))
