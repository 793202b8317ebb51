"""Slice-level reference samplers and the loop built from them, kept as
test oracles.

Production draws first-occurrence times and per-run counts from the
noise-averaged marginals (`processor.mean_event_fault_probability`,
`mean_crash_probability`).  The samplers here are the model those
marginals integrate, one store or one slice at a time: a fresh supply
noise draw, then a Bernoulli at the pointwise probability
(`event_fault_probability`, `crash_probability_per_slice`, the only
definitions of either chance).  They take an `rng.Stream` or a numpy
`Generator`.  The slice-level loop walks whole runs of the real victims
that way, drawing numpy blocks from a `Generator`, and tests hold every
closed-form runner in `victims` to it.
`scan_brute` is the quadratic definition `scanner.scan` is held to.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from voltlab.isa import MiniProgram, bundled_program, interpret
from voltlab.processor import (
    BitFlipPattern,
    CrashKind,
    crash_probability_per_slice,
    draw_crash_kind,
    draw_flip_masks,
    draw_flip_pattern,
    event_fault_probability,
    region_boundaries_mv,
)
from voltlab.scanner import (
    ADJACENCY_LIMIT,
    VP1_OPS,
    VP2_OPS,
    PatternHit,
    PatternKind,
    stored_vreg,
    written_vreg,
)
from voltlab.victims import GUARD_SLICES, PlatformState, RunStatus


# ---------------------------------------------------------------------------
# Faults and crashes, one store or one slice at a time


@dataclass(frozen=True)
class EligibleStoreEvent:
    """A fault-eligible vector store about to retire."""

    scenario: str
    word_index: int
    slice_index: int = 0


def fault_chance(state: PlatformState, scenario: str):
    """The chance that an eligible store on the pinned core of `state`
    faults under `scenario`, as a function of the effective voltage.  Zero
    outside the exploit window: normal and corrected regions never fault,
    and below the window the crash process dominates and silent data
    corruption is not modeled."""
    profile, core, pstate = state.profile, state.core, state.pstate
    multiplier, temp = state.stressor.fault_multiplier, state.temp_c
    return lambda v_eff_mv: event_fault_probability(
        profile, core, pstate, scenario, multiplier, v_eff_mv, temp
    )


def crash_chance(state: PlatformState):
    """The chance that one slice crashes the pinned core of `state`, as a
    function of the effective voltage.  Only a core actually executing
    work exercises critical paths, so the check runs against the victim
    core's boundary; zero everywhere above the instability line."""
    profile = state.profile
    ratio = profile.pstate_point(state.pstate).ratio
    _, _, floor = region_boundaries_mv(profile, state.core, state.pstate, state.temp_c)
    return lambda v_eff_mv: crash_probability_per_slice(profile, ratio, floor - v_eff_mv)


def _supply(state: PlatformState, rng):
    """One effective voltage: the nominal plus a fresh noise draw."""
    noise = state.profile.noise_mv
    return state.nominal_voltage_mv() + rng.uniform(-noise, noise)


def sample_fault(state: PlatformState, event: EligibleStoreEvent, rng) -> BitFlipPattern | None:
    """Does this eligible store, on the pinned core of `state`, retire
    corrupted?

    Draw order per call: slice noise, fault uniform, then (on a hit) the
    multiplicity bucket and bit positions.
    """
    p = fault_chance(state, event.scenario)(_supply(state, rng))
    if p <= 0.0 or rng.uniform() >= p:
        return None
    return draw_flip_pattern(state.profile, state.core, event.word_index, rng)


def sample_crash(state: PlatformState, rng, v_eff_mv: float | None = None) -> CrashKind | None:
    """One slice of the crash process on the pinned core of `state`: slice
    noise (unless `v_eff_mv` is given), crash uniform, then (on a crash)
    its kind."""
    if v_eff_mv is None:
        v_eff_mv = _supply(state, rng)
    p = crash_chance(state)(v_eff_mv)
    if p <= 0.0 or rng.uniform() >= p:
        return None
    return draw_crash_kind(state.profile.pstate_point(state.pstate).ratio, rng)


# ---------------------------------------------------------------------------
# The slice-level loop
#
# A run walks its tries (or iterations) slice by slice.  Every eligible
# store execution draws its own supply noise and uniform, as `sample_fault`
# does, and every slice its own for the crash check, as `sample_crash`
# does.  A campaign try is `events + 2 * GUARD_SLICES` slices long, a probe
# try or a loop iteration `slices` long; a try with a crashing slice, and
# every try after it, is not completed.  Then the real victim runs with a
# flip mask XORed into each store that faulted.
#
# For speed, a run's uniforms are drawn as numpy blocks, and a chance is
# evaluated, on a fresh noise draw, only where the uniform falls below its
# upper bound over the noise band.  Both chances grow as the voltage falls
# (a fault's only down to the floor, below which it is zero), so the bound
# is the chance at the band's low edge, or just above the floor.  A slice
# whose uniform is at or above the bound cannot fire, so this is exact.


def _fired(chance, bound: float, state: PlatformState, shape, rng) -> np.ndarray:
    """Which of a `shape` block of slices fire: a uniform each, then a
    noise draw and `chance` only for those under `bound`."""
    fired = np.zeros(shape, dtype=bool)
    if bound <= 0.0:
        return fired
    u = rng.random(shape)
    live = np.flatnonzero(u < bound)
    noise = state.profile.noise_mv
    volts = state.nominal_voltage_mv() + rng.uniform(-noise, noise, size=len(live))
    for i, v in zip(live.tolist(), volts.tolist()):
        p = chance(v)
        assert p <= bound, (v, p, bound)
        fired.flat[i] = u.flat[i] < p
    return fired


def fault_slices(state: PlatformState, scenario: str, shape, rng) -> np.ndarray:
    """Which of a `shape` block of eligible store executions fault."""
    chance = fault_chance(state, scenario)
    _, _, floor = region_boundaries_mv(state.profile, state.core, state.pstate, state.temp_c)
    low = state.nominal_voltage_mv() - state.profile.noise_mv
    return _fired(chance, chance(max(low, math.nextafter(floor, math.inf))), state, shape, rng)


def crash_slices(state: PlatformState, shape, rng) -> np.ndarray:
    """Which of a `shape` block of slices crash."""
    chance = crash_chance(state)
    low = state.nominal_voltage_mv() - state.profile.noise_mv
    return _fired(chance, chance(low), state, shape, rng)


def completed_tries(
    state: PlatformState, scenario: str, tries: int, slices: int, events: int, rng
):
    """The faulted stores of each completed try of one run of `tries`
    tries, each `slices` slices long with `events` eligible stores: a
    (tries completed, events) boolean array.  Draw order: the crash block,
    then the fault block of the tries completed."""
    crashed = crash_slices(state, (tries, slices), rng).any(axis=1)
    completed = int(crashed.argmax()) if crashed.any() else tries
    return fault_slices(state, scenario, (completed, events), rng)


class Reference(NamedTuple):
    """A victim program's fault-free run, as the loop replays it."""

    program: MiniProgram
    inputs: bytes | None
    scalar: dict | None
    eligible: frozenset  # the store instructions `scan_brute` finds
    output: bytes
    halt_index: int | None
    events: int  # eligible store executions in one run
    slices: int


def reference_run(program: MiniProgram, inputs=None, scalar=None) -> Reference:
    """Run `program` once fault-free on `inputs` (default: zeroed memory)
    and its `scalar` registers, counting the eligible stores it executes."""
    eligible = frozenset(hit.store_index for hit in scan_brute(program))
    stores = []
    run = interpret(program, inputs, scalar=scalar, store_hook=stores.append)
    events = sum(store.insn_index in eligible for store in stores)
    return Reference(
        program, inputs, scalar, eligible, bytes(run.memory), run.halt_index, events, run.slices
    )


# The guarded-branch victim checks its published conjunction against the
# all-ones pattern, so both input words and the comparison register are
# seeded with ones inside an otherwise standard 4 KiB memory.
POC_MEMORY = b"\xff" * 32 + b"\x00" * (4096 - 32)
POC_SCALARS = {"rax": 0xFFFF_FFFF_FFFF_FFFF}


@functools.cache
def poc_reference() -> Reference:
    """The fault-free run of `poc_and_branch` on its seeded inputs, made
    once per process; `victims.POC_EVENTS` is held to its `events`."""
    return reference_run(bundled_program("poc_and_branch"), POC_MEMORY, POC_SCALARS)


def faulted_run(ref: Reference, flips: dict):
    """`ref`'s program run again, `flips[k]` XORed into its `k`-th eligible
    store execution."""
    ordinals = itertools.count()

    def hook(store):
        if store.insn_index in ref.eligible:
            return store.value ^ flips.get(next(ordinals), 0)
        return None

    return interpret(ref.program, ref.inputs, scalar=ref.scalar, store_hook=hook)


def campaign_runs(state: PlatformState, scenario: str, events: int, tries: int, gens, verdicts):
    """(successes, tries completed) of one campaign run per generator in
    `gens`: tries of `events` eligible stores and `events + 2 * GUARD_SLICES`
    slices.  Each faulty completed try draws a flip mask per faulted store
    and becomes one {store ordinal: mask}; `verdicts` takes those of every
    run at once and says, for each, whether the try succeeded."""
    runs, flip_sets = [], []
    slices = events + 2 * GUARD_SLICES
    for gen in gens:
        faults = completed_tries(state, scenario, tries, slices, events, gen)
        tries_hit, stores = np.nonzero(faults)
        masks = draw_flip_masks(state.profile, state.core, len(stores), gen)
        sets: dict[int, dict] = {}
        for t, k, mask in zip(tries_hit.tolist(), stores.tolist(), masks):
            sets.setdefault(t, {})[k] = mask
        runs.append((len(sets), len(faults)))
        flip_sets += sets.values()
    succeeded = iter(verdicts(flip_sets))
    return [(sum(itertools.islice(succeeded, n)), completed) for n, completed in runs]


def probe_run(state: PlatformState, ref: Reference, tries: int, rng):
    """(faulty tries, tries completed, flip masks) of one probe run: a mask
    per faulted store of each completed try."""
    faults = completed_tries(state, "probe", tries, ref.slices, ref.events, rng)
    masks = draw_flip_masks(state.profile, state.core, int(faults.sum()), rng)
    return int(faults.any(axis=1).sum()), len(faults), masks


def loop_run(state: PlatformState, ref: Reference, max_iters: int, rng):
    """(status, iterations executed) of one test-loop run: each iteration
    runs the victim, with a mask on each store that faulted, and compares
    its output with the fault-free one at the end.  A crash anywhere in an
    iteration comes before that comparison."""
    crashed = crash_slices(state, (max_iters, ref.slices), rng).any(axis=1)
    faults = fault_slices(state, "probe", (max_iters, ref.events), rng)
    for i in range(max_iters):
        if crashed[i]:
            return RunStatus.CRASH, i
        ordinals = np.flatnonzero(faults[i]).tolist()
        if ordinals:
            masks = draw_flip_masks(state.profile, state.core, len(ordinals), rng)
            run = faulted_run(ref, dict(zip(ordinals, masks)))
            if run.memory != ref.output:
                return RunStatus.MISMATCH, i + 1
    return RunStatus.MATCH, max_iters


# ---------------------------------------------------------------------------
# Pattern scan


def scan_brute(program: MiniProgram) -> list[PatternHit]:
    """Quadratic reference enumeration of the pattern `scanner.scan` finds."""
    hits = []
    insns = program.instructions
    for i, op in enumerate(insns):
        if op.opcode in VP1_OPS:
            kind = PatternKind.VP1
        elif op.opcode in VP2_OPS:
            kind = PatternKind.VP2
        else:
            continue
        dst = op.operands[-1].name
        for j in range(i + 1, min(i + 2 + ADJACENCY_LIMIT, len(insns))):
            if any(written_vreg(insns[k]) == dst for k in range(i + 1, j)):
                break
            if stored_vreg(insns[j]) == dst:
                hits.append(PatternHit(kind, i, j))
    # Completion order: a store finishes at most one pattern, so ordering
    # by store index matches the forward pass exactly.
    hits.sort(key=lambda h: h.store_index)
    return hits
