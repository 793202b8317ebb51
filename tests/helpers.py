"""Shared test utilities."""

import functools
import random

import numpy as np
from scipy.stats import chi2_contingency, chisquare

import voltlab.victims as victims
from voltlab import rng as rngmod
from voltlab.errors import AbortedByCrash, NoWindowFound
from voltlab.msr import OFFSET_MIN_MV
from voltlab.isa import parse_program
from voltlab.orchestrator import STEP_MV, VoltagePlan
from voltlab.processor import BitFlipPattern, normalize_pstate
from voltlab.victims import (
    PlatformState,
    RunStatus,
    pinned_rates,
    run_poc_enclave,
    run_test_loop,
)

from slice_reference import LoopVictim, loop_victim, poc_reference

VREGS = [f"%xmm{i}" for i in range(16)]

# Switching work with no vector stores: nothing to mismatch, so a level
# survives it only if the platform itself does.  Phase 1's stage two is its
# closed form, `orchestrator.STABILITY_SLICES` slices of it per level.
STABILITY_SOURCE = "\n".join(
    ["# scratch loop, scalar traffic only"]
    + ["push %r10", "pop %r10", "push %r11", "pop %r11"] * 3
    + ["push %r12", "pop %r12", "halt"]
)


@functools.cache
def stability_victim() -> LoopVictim:
    """The scratch loop, prepared once per process."""
    return loop_victim(parse_program(STABILITY_SOURCE, "stability_check"))


def numpy_stream(seed, *path) -> np.random.Generator:
    """A numpy Philox generator keyed by `rng.derive_key(seed, *path)`, for
    test data and oracles that need numpy's own draws (`integers`,
    `choice`, sized `binomial`).  Every voltlab runner also takes one in
    place of an `rng.stream`."""
    key = np.frombuffer(rngmod.derive_key(seed, *path), dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))


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
    """One flip pattern by `Generator.choice`: the distribution oracle of
    `processor.draw_flip_masks`, which must draw patterns the same way in
    distribution, not draw for draw.
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
    return BitFlipPattern(word_index, sum(1 << int(b) for b in bits))


def two_sample_p(a, b):
    """Chi-square p-value that the bin counts `a` and `b` come from one
    distribution.  Empty bins are dropped and the bins whose expected count
    is under 5 in either sample are merged into one; 1.0 when a single bin
    is left."""
    table = np.vstack([a, b]).astype(float)
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    small = (expected < 5.0).any(axis=0)
    if small.any():
        table = np.column_stack([table[:, ~small], table[:, small].sum(axis=1)])
    if table.shape[1] < 2:
        return 1.0
    return float(chi2_contingency(table, correction=False).pvalue)


def goodness_of_fit_p(observed, weights):
    """Chi-square p-value of the bin counts `observed` against bins in
    proportion to `weights`, the bins expecting under 5 merged into one.  A
    count in a bin of zero weight is an impossible draw and fails outright."""
    observed, weights = np.asarray(observed, dtype=float), np.asarray(weights, dtype=float)
    live = weights > 0
    if observed[~live].any():
        return 0.0
    observed = observed[live]
    expected = observed.sum() * weights[live] / weights[live].sum()
    small = expected < 5.0
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    if len(observed) < 2:
        return 1.0
    return float(chisquare(observed, expected).pvalue)


def fresh_cache(monkeypatch, module, name):
    """Give the `functools.cache` function `module.name` an empty cache
    for the rest of the test; `monkeypatch` puts back the warm one, so
    later tests still share what earlier ones prepared."""
    monkeypatch.setattr(module, name, functools.cache(getattr(module, name).__wrapped__))


def run_loop_under(env, max_iters, rng):
    """`run_test_loop` on the pinned core of the `PlatformState` `env`,
    with the rates `pinned_rates` gives for the eligible stores of the
    prepared `vp1_xor_kernel`."""
    rates = pinned_rates(env, loop_victim("vp1_xor_kernel").events, "probe")
    return run_test_loop(rates, env.profile.pstate_point(env.pstate).ratio, max_iters, rng)


def run_poc_under(env, tries, rng):
    """`run_poc_enclave` for the guarded branch (`poc_reference`) on the
    pinned core of the `PlatformState` `env`, with the rates `pinned_rates`
    gives for it and the whole program undervolted on every try."""
    ref = poc_reference()
    _, q, g = pinned_rates(env, ref.events, "poc")
    c_try = victims._any_of(g, ref.slices)
    return run_poc_enclave(q, c_try, tries, rng)


def reference_phase1(
    profile,
    pstate=None,
    *,
    seed=0,
    iters_per_level=20_000,
    stability_iters=100,
    crash_retries=3,
):
    """`orchestrator.phase1_find_window` as a walk that runs every level.

    The production search jumps past the levels where nothing can draw,
    steps over the rest of them, and reads its loop counts from constants;
    this one walks every level from offset 0.  Stage one runs
    `run_test_loop` with the rates of the prepared `vp1_xor_kernel`'s
    stores (`run_loop_under`); stage two draws each level's first-crash
    slice against `stability_iters` laps of the scratch loop
    (`stability_victim`).  So the two must return the same plan or raise
    the same error.  It also builds a `PlatformState` at every level and
    derives the level's rates from it, instead of from phase 1's per-core
    temperature.
    """
    if pstate is None:
        pstate = profile.default_attack_pstate
    pstate = normalize_pstate(pstate)
    base = profile.pstate_point(pstate).base_voltage_mv
    stability_slices = stability_iters * stability_victim().slices_per_iteration

    window_top_mv = [None] * profile.physical_cores
    chosen_offset = [0] * profile.physical_cores
    crashes = 0

    for core in range(profile.physical_cores):
        offset = 0
        retries = 0
        while offset >= OFFSET_MIN_MV:
            env = PlatformState(profile, pstate, core, offset, seed=seed)
            gen = rngmod.stream(seed, "phase1", pstate, core, offset, retries)
            out = run_loop_under(env, iters_per_level, gen)
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
        while offset >= OFFSET_MIN_MV:
            env = PlatformState(profile, pstate, core, offset, seed=seed)
            gen = rngmod.stream(seed, "phase1-stability", pstate, core, offset)
            g_slice = pinned_rates(env, 0, "probe").g_slice
            if g_slice > 0.0 and gen.geometric(g_slice) <= stability_slices:
                crashes += 1
                found = offset + STEP_MV
                break
            offset -= STEP_MV
        # No crash: the last level walked, or the window top if none was.
        chosen_offset[core] = found if found is not None else offset + STEP_MV

    missing = [c for c, w in enumerate(window_top_mv) if w is None]
    if missing:
        raise NoWindowFound(
            f"no fault window above instability for cores {missing} "
            f"at pstate {pstate} (searched down to {OFFSET_MIN_MV} mV)"
        )
    return VoltagePlan(
        pstate=pstate,
        window_top_v=tuple(mv / 1000.0 for mv in window_top_mv),
        chosen_offset_mv=tuple(chosen_offset),
        crashes_during_search=crashes,
    )


def run_campaigns_out_of_order(monkeypatch, seed=0):
    """Check every campaign's runs against the same runs made alone and
    out of index order.

    `victims._campaign`, the one run loop, is wrapped.  After the real
    loop, each of its runs is recomputed from its own stream,
    `rng.stream(env.seed, *key, core, r)`, at the rates the loop handed
    `run_poc_enclave`: once in reversed order, then again in a seeded
    shuffle.  Both passes must give the campaign's `per_run`, a crashed
    run's partial included.  A run whose outcome depends on the runs before
    it, for instance through state or a stream shared between runs, fails.
    The wrapper returns or raises what the real loop did.
    """
    real_campaign, real_run = victims._campaign, victims.run_poc_enclave
    rates = []

    def recorded_run(q, c_try, tries, rng):
        rates.append((q, c_try, tries))
        return real_run(q, c_try, tries, rng)

    def checked(env, events, scenario, key, tries, runs):
        rates.clear()
        try:
            result, raised = real_campaign(env, events, scenario, key, tries, runs), None
        except AbortedByCrash as abort:
            result, raised = abort.partial, abort
        (args,) = set(rates)  # one rate for every run of a campaign

        def alone(r):
            try:
                return real_run(*args, rngmod.stream(env.seed, *key, env.core, r)), tries
            except AbortedByCrash as abort:
                return abort.partial

        indexes = list(range(len(result.per_run)))[::-1]
        first = {r: alone(r) for r in indexes}
        random.Random(seed).shuffle(indexes)
        second = {r: alone(r) for r in indexes}
        expected = dict(enumerate(result.per_run))
        assert first == second == expected, "a run's outcome depends on more than its own key"
        if raised is not None:
            raise raised
        return result

    monkeypatch.setattr(victims, "run_poc_enclave", recorded_run)
    monkeypatch.setattr(victims, "_campaign", checked)

