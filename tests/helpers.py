"""Shared test utilities."""

import math
import random

import numpy as np

import voltlab.orchestrator as orchestrator
import voltlab.victims as victims
from voltlab import rng as rngmod
from voltlab.errors import InvariantError, NoWindowFound
from voltlab.orchestrator import (
    OFFSET_FLOOR_MV,
    STEP_MV,
    VoltagePlan,
    _STABILITY_PROGRAM,
    _pinned_state,
)
from voltlab.processor import BitFlipPattern, core_temp_targets, normalize_pstate
from voltlab.victims import RunStatus, run_test_loop

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


def reference_hmac_detail(ctx, profile, core, ks, rng):
    """The detail draws `victims._hmac_single_run` replays, as calls.

    For each completed try's fault count in `ks`, in try order: one
    `Generator.choice` of the faulted events, then one flip pattern per
    event in sorted order, from `reference_flip_pattern` so that no
    replayed draw sits on this side.  Returns the fault dicts the
    production run hands to `HmacContext.macs_with_faults`.
    """
    fault_sets = []
    for k in ks:
        k = int(k)
        if k == 0:
            continue
        chosen = rng.choice(ctx.total_events, size=k, replace=False)
        faults = {}
        for g in sorted(int(x) for x in chosen):
            block, event = ctx.locate_event(g)
            faults[(block, event)] = reference_flip_pattern(profile, core, event, rng).mask
        fault_sets.append(faults)
    return fault_sets


def reference_memory_diff(before, after):
    """`victims.memory_diff` as a loop over every 128-bit word."""
    if len(before) != len(after):
        raise InvariantError("memories must be the same size to diff")
    out = []
    for word in range(len(before) // 16):
        a = int.from_bytes(before[16 * word : 16 * word + 16], "little")
        b = int.from_bytes(after[16 * word : 16 * word + 16], "little")
        delta = a ^ b
        if delta:
            bits = frozenset(i for i in range(128) if delta >> i & 1)
            out.append(BitFlipPattern(word, bits))
    return tuple(out)


def reference_phase1(
    profile,
    victim_program="vp1_xor_kernel",
    pstate=None,
    start_offset_mv=0,
    *,
    seed=0,
    iters_per_level=20_000,
    stability_iters=100,
    crash_retries=3,
):
    """`orchestrator.phase1_find_window` as a walk that runs every level.

    The production search steps over the levels where the loop cannot
    draw; this one runs `run_test_loop` at each of them, so the two must
    return the same plan or raise the same error.
    """
    if pstate is None:
        pstate = profile.default_attack_pstate
    pstate = normalize_pstate(pstate)
    if start_offset_mv % STEP_MV:
        raise InvariantError("the search grid moves in 5 mV steps")
    base = profile.pstate_point(pstate).base_voltage_mv

    window_top_mv = [None] * profile.physical_cores
    chosen_offset = [0] * profile.physical_cores
    crashes = 0

    for core in range(profile.physical_cores):
        offset = start_offset_mv
        retries = 0
        while offset >= OFFSET_FLOOR_MV:
            env = _pinned_state(profile, pstate, core, "none", seed, offset)
            gen = rngmod.stream(seed, "phase1", pstate, core, offset, retries)
            out = run_test_loop(victim_program, env, iters_per_level, gen)
            if out.status is RunStatus.MISMATCH:
                window_top_mv[core] = base + offset
                break
            if out.status is RunStatus.CRASH:
                crashes += 1
                retries += 1
                if retries >= crash_retries:
                    break
                continue
            offset -= STEP_MV
        if window_top_mv[core] is None:
            continue

        offset = int(window_top_mv[core] - base) - STEP_MV
        found = None
        while offset >= OFFSET_FLOOR_MV:
            env = _pinned_state(profile, pstate, core, "none", seed, offset)
            gen = rngmod.stream(seed, "phase1-stability", pstate, core, offset)
            out = run_test_loop(_STABILITY_PROGRAM, env, stability_iters, gen)
            if out.status is RunStatus.CRASH:
                crashes += 1
                found = offset + STEP_MV
                break
            offset -= STEP_MV
        chosen_offset[core] = found if found is not None else OFFSET_FLOOR_MV

    missing = [c for c, w in enumerate(window_top_mv) if w is None]
    if missing:
        raise NoWindowFound(
            f"no fault window above instability for cores {missing} "
            f"at pstate {pstate} (searched down to {OFFSET_FLOOR_MV} mV)"
        )
    return VoltagePlan(
        pstate=pstate,
        window_top_v=tuple(mv / 1000.0 for mv in window_top_mv),
        chosen_offset_mv=tuple(chosen_offset),
        crashes_during_search=crashes,
    )


def run_campaigns_out_of_order(monkeypatch, seed=0):
    """Make every campaign evaluate its runs out of index order.

    `victims._campaign_runs` is patched at each name that binds it.  The
    wrapper calls `one(r)` for every run in reversed order, then again in
    a seeded shuffle, checks that both passes agree, and hands the cached
    outcomes to the real fan-out in index order.  A campaign whose result
    then differs from a plain call depends on the order its runs execute
    in, for instance through state shared between runs.
    """
    real = victims._campaign_runs

    def out_of_order(one, runs, core, scenario):
        indexes = list(range(runs))[::-1]
        first = {r: one(r) for r in indexes}
        random.Random(seed).shuffle(indexes)
        second = {r: one(r) for r in indexes}
        assert first == second, "a run's outcome depends on which runs came before it"
        return real(first.__getitem__, runs, core, scenario)

    for module in (victims, orchestrator):
        monkeypatch.setattr(module, "_campaign_runs", out_of_order)


def update_temperature(state, dt_s, workload=None):
    """First-order relaxation of core temperatures toward their targets.

    `workload` may override the target of individual physical cores (adds
    degrees on top of the role-derived target).
    """
    if dt_s < 0:
        raise InvariantError("time does not flow backwards here")
    targets = core_temp_targets(state)
    if workload:
        for phys, extra in workload.items():
            targets[state.profile.check_core(phys)] += extra
    alpha = 1.0 - math.exp(-dt_s / state.temp_tau_s)
    state.core_temp_c += (targets - state.core_temp_c) * alpha
