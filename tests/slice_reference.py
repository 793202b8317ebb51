"""Slice-level reference samplers, kept as test oracles.

Production draws first-occurrence times and per-run counts from the
noise-averaged marginals (`processor.mean_event_fault_probability`,
`mean_crash_probability`).  The samplers here are the model those
marginals integrate, one store or one slice at a time: a fresh supply
noise draw, then a Bernoulli at the pointwise probability.  `scan_brute`
is the quadratic definition `scanner.scan` is held to, and
`estimate_window` counts a hit's store executions from one traced run.
"""

from dataclasses import dataclass

import numpy as np

from voltlab.isa import MiniProgram, interpret
from voltlab.processor import (
    BitFlipPattern,
    CrashKind,
    crash_probability_per_slice,
    draw_crash_kind,
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
from voltlab.victims import PlatformState


# ---------------------------------------------------------------------------
# Faults and crashes, one store or one slice at a time


@dataclass(frozen=True)
class EligibleStoreEvent:
    """A fault-eligible vector store about to retire."""

    scenario: str
    word_index: int
    slice_index: int = 0


def sample_fault(
    state: PlatformState, event: EligibleStoreEvent, rng: np.random.Generator
) -> BitFlipPattern | None:
    """Does this eligible store, on the pinned core of `state`, retire
    corrupted?

    Draw order per call: slice noise, fault uniform, then (on a hit) the
    multiplicity bucket and bit positions.  Normal and corrected regions
    never fault; below the window the crash process dominates and silent
    data corruption is not modeled.
    """
    profile, core = state.profile, state.core
    noise = rng.uniform(-profile.noise_mv, profile.noise_mv)
    v_eff = state.nominal_voltage_mv() + noise
    p = event_fault_probability(
        profile,
        core,
        state.pstate,
        event.scenario,
        state.stressor.fault_multiplier,
        v_eff,
        state.temp_c,
    )
    if p <= 0.0 or rng.uniform() >= p:
        return None
    return draw_flip_pattern(profile, core, event.word_index, rng)


def sample_crash(
    state: PlatformState, rng: np.random.Generator, v_eff_mv: float | None = None
) -> CrashKind | None:
    """One slice of the crash process on the pinned core of `state`.

    Only a core actually executing work exercises critical paths, so the
    check runs against the victim core's boundary.  Returns None everywhere
    above the instability line.
    """
    profile = state.profile
    if v_eff_mv is None:
        v_eff_mv = state.nominal_voltage_mv() + rng.uniform(-profile.noise_mv, profile.noise_mv)
    point = profile.pstate_point(state.pstate)
    _, _, floor = region_boundaries_mv(profile, state.core, state.pstate, state.temp_c)
    depth = floor - v_eff_mv
    if depth < 0.0:
        return None
    p = crash_probability_per_slice(profile, point.ratio, depth)
    if rng.uniform() >= p:
        return None
    return draw_crash_kind(point.ratio, rng)


# ---------------------------------------------------------------------------
# Pattern scan and store windows


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


@dataclass(frozen=True)
class WindowEstimate:
    """When and for how long a hit's store is live during a full run."""

    first_slice: int | None  # slice of first execution; None if never reached
    duration_slices: int  # eligible-store executions across the whole run


def estimate_window(
    program: MiniProgram,
    hit: PatternHit,
    iterations_per_run: int,
    memory: bytes | None = None,
    xmm: dict | None = None,
    scalar: dict | None = None,
    max_slices: int = 100_000,
) -> WindowEstimate:
    """Count executions of the hit's store under the 1-instruction=1-slice
    cost model: one traced pass, scaled by the run's iteration count."""
    trace: list[int] = []
    interpret(program, memory, xmm=xmm, scalar=scalar, max_slices=max_slices, trace=trace)
    first = None
    per_pass = 0
    for slice_index, insn_index in enumerate(trace):
        if insn_index == hit.store_index:
            per_pass += 1
            if first is None:
                first = slice_index
    return WindowEstimate(first, per_pass * iterations_per_run)
