"""Victim programs and the campaign primitives that drive them.

Three victims matter here: a probing test loop that re-runs a small vector
kernel and compares outputs, a branch-diversion target whose single store
feeds an integrity check, and an HMAC-SHA256 validator whose compression
stores are the fault surface.  Stressors are co-resident workloads pinned
to the victim's logical partner; they raise the victim core's temperature
and its appetite for faults.

Campaign runners here never iterate slice by slice.  The per-event and
per-slice probabilities averaged over supply noise are piecewise exact
(see processor.mean_event_fault_probability), so first-occurrence times
come from geometric draws and per-try fault counts from binomials.  The
distribution of observable outcomes is the same as a slice-level loop;
only the draw order differs, and that order is fixed and documented on
each runner.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .errors import (
    AbortedByCrash,
    InterpreterError,
    InvalidCore,
    InvariantError,
    UnknownStressor,
)
from .isa import MiniProgram, bundled_program, interpret
from .mca import MachineCheck, SurfacedFault, draw_surfaced_fault
from .processor import (
    BitFlipPattern,
    CrashKind,
    PlatformState,
    ProcessorProfile,
    draw_crash_kind,
    draw_fault_sets,
    draw_flip_masks,
    draw_flip_pattern,
    effective_window_top_mv,
    mean_crash_probability,
    mean_event_fault_probability,
)
from .scanner import scan
from .sha256sim import EVENTS_PER_BLOCK, HmacContext

__all__ = [
    "CampaignResult",
    "LoopRates",
    "RunOutcome",
    "RunStatus",
    "STRESSORS",
    "StressorSpec",
    "loop_rates",
    "memory_diff",
    "run_hmac_victim",
    "run_poc_enclave",
    "run_test_loop",
    "stressor_profile",
]

# Slices the undervolt stays applied before and after a victim's
# fault-prone window; campaigns pay crash exposure for both margins.
GUARD_SLICES = 10


# ---------------------------------------------------------------------------
# Stressors


@dataclass(frozen=True)
class StressorSpec:
    """What running a workload on the victim's logical partner does.

    `fault_multiplier` scales the calibrated per-event fault ceiling and is
    at least 1 ("none" is exactly 1).  `temp_boost_c` adds to the victim
    core's equilibrium temperature.  `program` names a bundled mini-ISA
    source when the stressor is one, None for native workloads.
    """

    name: str
    fault_multiplier: float
    temp_boost_c: float
    program: str | None = None

    def __post_init__(self):
        if self.fault_multiplier < 1.0:
            raise InvariantError("stressor multiplier is at least 1")


STRESSORS = {
    "shift_loop": StressorSpec("shift_loop", 24.75, 3.0, program="shift_stressor"),
    "twofish_avx": StressorSpec("twofish_avx", 2.0, 2.0),
    "none": StressorSpec("none", 1.0, 0.0),
}

# Alternate lookup keys accepted anywhere a stressor name is taken.
STRESSOR_ALIASES = {
    "listing2_shift_loop": "shift_loop",
    "listing2": "shift_loop",
    "shift": "shift_loop",
    "twofish": "twofish_avx",
}


def stressor_profile(name: str) -> StressorSpec:
    key = STRESSOR_ALIASES.get(name, name)
    try:
        return STRESSORS[key]
    except KeyError:
        raise UnknownStressor(
            f"unknown stressor {name!r}; know {sorted(STRESSORS)}"
        ) from None


# ---------------------------------------------------------------------------
# Run outcomes


class RunStatus(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    CRASH = "crash"
    PROCESSOR_EXCEPTION = "processor_exception"


@dataclass(frozen=True)
class RunOutcome:
    """Terminal state of one test-loop run."""

    status: RunStatus
    iterations_executed: int
    diff: tuple[BitFlipPattern, ...] = ()
    crash: CrashKind | None = None
    exception: SurfacedFault | None = None

    def __post_init__(self):
        if self.status is RunStatus.MISMATCH and not self.diff:
            raise InvariantError("a mismatch carries a nonzero diff")
        if self.status is RunStatus.CRASH and self.crash is None:
            raise InvariantError("a crash outcome names its kind")
        if self.status is RunStatus.PROCESSOR_EXCEPTION and self.exception is None:
            raise InvariantError("an exception outcome names its kind")

    @classmethod
    def match(cls, iterations: int) -> "RunOutcome":
        return cls(RunStatus.MATCH, iterations)

    @classmethod
    def mismatch(cls, diff, iterations: int) -> "RunOutcome":
        return cls(RunStatus.MISMATCH, iterations, diff=tuple(diff))

    @classmethod
    def crashed(cls, kind: CrashKind, iterations: int) -> "RunOutcome":
        return cls(RunStatus.CRASH, iterations, crash=kind)

    @classmethod
    def excepted(cls, kind: SurfacedFault, iterations: int) -> "RunOutcome":
        return cls(RunStatus.PROCESSOR_EXCEPTION, iterations, exception=kind)


def memory_diff(before, after) -> tuple[BitFlipPattern, ...]:
    """Differences between two equal-sized memories, one pattern per
    differing 128-bit word (word index = byte offset // 16)."""
    if len(before) != len(after):
        raise InvariantError("memories must be the same size to diff")
    size = len(before) // 16 * 16
    old = np.frombuffer(before, dtype=np.uint8, count=size).reshape(-1, 16)
    new = np.frombuffer(after, dtype=np.uint8, count=size).reshape(-1, 16)
    out = []
    for word in np.flatnonzero((old != new).any(axis=1)).tolist():
        a = int.from_bytes(before[16 * word : 16 * word + 16], "little")
        b = int.from_bytes(after[16 * word : 16 * word + 16], "little")
        delta = a ^ b
        out.append(BitFlipPattern(word, frozenset(i for i in range(128) if delta >> i & 1)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Program geometry


@dataclass(frozen=True)
class _Geometry:
    """One fault-free execution plus where its eligible stores sit."""

    reference: object  # ExecutionResult
    store_slices: tuple[int, ...]  # slice offset of each eligible store execution
    store_insns: tuple[int, ...]  # instruction index behind each of those
    slices_per_iteration: int


def _resolve_program(program) -> MiniProgram:
    if isinstance(program, MiniProgram):
        return program
    return bundled_program(program)


def _geometry(program: MiniProgram, memory, xmm, scalar, max_slices) -> _Geometry:
    eligible = {hit.store_index for hit in scan(program)}
    trace: list[int] = []
    reference = interpret(
        program, memory, xmm=xmm, scalar=scalar, max_slices=max_slices, trace=trace
    )
    if not reference.halted:
        raise InterpreterError(
            f"{program.source_name}: does not halt within {max_slices} slices; "
            "a comparison loop needs a finishing victim"
        )
    store_slices = []
    store_insns = []
    for slice_index, insn_index in enumerate(trace):
        if insn_index in eligible:
            store_slices.append(slice_index)
            store_insns.append(insn_index)
    return _Geometry(reference, tuple(store_slices), tuple(store_insns), reference.slices)


def _any_of(p: float, n: float) -> float:
    # 1 - (1-p)^n, stable for tiny p and saturating at certainty.
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def _truncated_geometric(u: float, p: float, n: int) -> int:
    # First-success index in 0..n-1 conditioned on at least one success
    # among n independent Bernoulli(p) trials.
    if p >= 1.0:
        return 0
    total = -math.expm1(n * math.log1p(-p))  # 1-(1-p)^n
    j = int(math.log1p(-u * total) / math.log1p(-p))
    return min(j, n - 1)


def _tries_before_crash(rng: np.random.Generator, c_try: float, tries: int) -> int:
    """Tries completed before the crash: one geometric draw of the 1-based
    crash try, or none when the per-try crash chance is zero."""
    if c_try <= 0.0:
        return tries
    return min(int(rng.geometric(c_try)) - 1, tries)


def _run_with_flips(program, memory, xmm, scalar, max_slices, geometry, flips):
    """Re-execute, XORing the given masks into eligible store executions.

    `flips` maps eligible-execution ordinal -> (mask, word_index_out list).
    """
    eligible = set(geometry.store_insns)
    counter = 0
    patterns: dict[int, BitFlipPattern] = {}

    def hook(store):
        nonlocal counter
        if store.insn_index not in eligible:
            return None
        ordinal = counter
        counter += 1
        if ordinal not in flips:
            return None
        mask = flips[ordinal]
        patterns[ordinal] = BitFlipPattern(
            store.address // 16,
            frozenset(i for i in range(128) if mask >> i & 1),
        )
        return store.value ^ mask

    result = interpret(
        program, memory, xmm=xmm, scalar=scalar, max_slices=max_slices, store_hook=hook
    )
    return result, patterns


# ---------------------------------------------------------------------------
# The probing test loop


class LoopRates(NamedTuple):
    """Noise-averaged chances at one test-loop level."""

    p_event: float  # one eligible store faults
    q_iter: float  # at least one of an iteration's eligible stores faults
    g_slice: float  # the platform crashes, per slice
    e_slice: float  # a decode error surfaces in the victim, per slice

    @property
    def quiet(self) -> bool:
        """Nothing can happen: `run_test_loop` returns Match without a draw."""
        return self.q_iter <= 0.0 and self.g_slice <= 0.0 and self.e_slice <= 0.0


def loop_rates(
    profile: ProcessorProfile,
    core: int,
    pstate: str,
    v_nom: float,
    temp: float,
    events: int,
    stressor_multiplier: float = 1.0,
    machine_check: MachineCheck | None = None,
) -> LoopRates:
    """The rates of a loop with `events` eligible stores per iteration, at
    nominal voltage `v_nom` and core temperature `temp`, under the probe
    scenario's calibration."""
    p_event = 0.0
    if events:
        p_event = mean_event_fault_probability(
            profile, core, pstate, "probe", stressor_multiplier, v_nom, temp
        )
    g_slice = mean_crash_probability(profile, core, pstate, v_nom, temp)
    e_slice = 0.0
    if machine_check is not None and machine_check.surface_probability > 0.0:
        # Decode errors fire anywhere below the window top; the surfaced
        # fraction of them trips the victim program.
        n = profile.noise_mv
        top = effective_window_top_mv(profile, core, pstate, temp)
        if n > 0.0:
            below = min(max((top - v_nom + n) / (2.0 * n), 0.0), 1.0)
        else:
            below = 1.0 if v_nom <= top else 0.0
        e_slice = machine_check.decode_rate * machine_check.surface_probability * below
    return LoopRates(p_event, _any_of(p_event, events), g_slice, e_slice)


def run_test_loop(
    program,
    env: PlatformState,
    max_iters: int,
    rng: np.random.Generator,
    *,
    machine_check: MachineCheck | None = None,
) -> RunOutcome:
    """Reference once at nominal voltage, then iterate under `env` on the
    victim's physical core (core 0 when no victim is pinned).

    Returns on the first iteration whose output differs from the reference
    (Mismatch with the bit-level diff), on a platform crash, or on a
    surfaced processor exception; Match after `max_iters` clean laps.  All
    failure modes are RunOutcome values, never exceptions.

    Draw order per run: first-fault iteration, first-crash slice, first-
    exception slice, then the winner's detail draws (faulted-event choice
    and flip patterns, crash kind, or exception kind).  First-occurrence
    times use the noise-averaged marginals, which is distribution-exact.
    """
    program = _resolve_program(program)
    profile = env.profile
    core = env.victim_physical
    if core is None:
        core = 0
    geom = _geometry(program, None, None, None, 100_000)
    spi = geom.slices_per_iteration
    events = len(geom.store_slices)
    temp = float(env.core_temp_c[core])
    rates = loop_rates(
        profile, core, env.pstate, env.nominal_voltage_mv(), temp, events,
        env.stressor_fault_multiplier, machine_check,
    )
    if rates.quiet:
        return RunOutcome.match(max_iters)
    p_event, q_iter, g_slice, e_slice = rates

    crash_slice = int(rng.geometric(g_slice)) - 1 if g_slice > 0.0 else None
    exc_slice = int(rng.geometric(e_slice)) - 1 if e_slice > 0.0 else None

    iter_base = 0  # iterations already survived
    while True:
        budget = max_iters - iter_base
        if budget <= 0:
            break
        fault_iter = None
        if q_iter > 0.0:
            draw = int(rng.geometric(q_iter))  # 1-based within remaining budget
            if draw <= budget:
                fault_iter = iter_base + draw - 1  # 0-based iteration index

        # Candidate (iteration, slice-within, precedence) triples; a crash
        # or exception during the faulting iteration preempts the output
        # comparison that happens at its end.
        candidates = []
        if crash_slice is not None and crash_slice < max_iters * spi:
            candidates.append((crash_slice // spi, crash_slice % spi, 0, "crash"))
        if exc_slice is not None and exc_slice < max_iters * spi:
            candidates.append((exc_slice // spi, exc_slice % spi, 1, "exception"))
        if fault_iter is not None:
            candidates.append((fault_iter, spi, 2, "fault"))
        candidates = [c for c in candidates if c[0] >= iter_base]
        if not candidates:
            break
        it, _, _, what = min(candidates)

        if what == "crash":
            kind = draw_crash_kind(profile.pstate_point(env.pstate).ratio, rng)
            return RunOutcome.crashed(kind, it)
        if what == "exception":
            return RunOutcome.excepted(draw_surfaced_fault(rng), it)

        # Fault wins: pick which eligible store faulted first, then give
        # each later store in the same iteration its independent chance.
        j = _truncated_geometric(float(rng.uniform()), p_event, events)
        ordinals = [j]
        if j + 1 < events:
            extra = rng.uniform(size=events - j - 1) < p_event
            ordinals.extend(j + 1 + k for k in np.flatnonzero(extra))
        flips = {}
        for ordinal in ordinals:
            # Only the mask matters; the outcome's diff carries real word
            # indexes computed from memory.
            pattern = draw_flip_pattern(profile, core, ordinal, rng)
            flips[ordinal] = pattern.mask
        faulted, _ = _run_with_flips(program, None, None, None, 100_000, geom, flips)
        diff = memory_diff(geom.reference.memory, faulted.memory)
        if diff:
            return RunOutcome.mismatch(diff, it + 1)
        # Corruption never reached the output buffer; the loop keeps going.
        iter_base = it + 1

    return RunOutcome.match(max_iters)


# ---------------------------------------------------------------------------
# Branch-diversion victim


def _pin_check(env: PlatformState, target_core: int) -> int:
    core = env.profile.check_core(target_core)
    pinned = env.victim_physical
    if pinned is not None and pinned != core:
        raise InvalidCore(
            f"victim is pinned to physical core {pinned}, asked to run on {core}"
        )
    return core


# The guarded-branch victim checks its published conjunction against the
# all-ones pattern, so both input words and the comparison register are
# seeded with ones inside an otherwise standard 4 KiB memory.
POC_MEMORY = b"\xff" * 32 + b"\x00" * (4096 - 32)
POC_SCALARS = {"rax": 0xFFFF_FFFF_FFFF_FFFF}


class _DiversionOracle:
    """Check that a mask XORed into the guarded store really does divert
    control flow, by one real execution."""

    def __init__(self, program: MiniProgram, geometry: _Geometry, memory, scalar):
        self.program = program
        self.geometry = geometry
        self.memory = memory
        self.scalar = scalar
        self.reference_halt = geometry.reference.halt_index

    def diverts(self, mask: int) -> bool:
        result, _ = _run_with_flips(
            self.program, self.memory, None, self.scalar, 100_000, self.geometry, {0: mask}
        )
        return result.halt_index != self.reference_halt


def run_poc_enclave(
    env: PlatformState,
    target_core: int,
    tries: int,
    rng: np.random.Generator,
    *,
    exposure_slices: int | None = None,
) -> int:
    """Run the guarded-branch victim (`poc_and_branch`) `tries` times;
    count diversions.

    A try succeeds when a flip lands in the checked store and the follow-up
    comparison takes the recovery path.  Each distinct flip mask is proved
    to divert by actually executing the program once with that mask.

    `exposure_slices` is how many slices per try spend undervolted; it
    defaults to the whole program, and campaigns that gate the undervolt
    around the store window pass something smaller.

    Draw order: per-try fault Bernoullis as one block, then the crash
    geometric, then one flip pattern per completed faulted try, in try
    order.  The patterns come from one `draw_flip_masks` call, which
    consumes the generator exactly as that many `draw_flip_pattern` calls
    would.  The oracle is asked once per distinct mask, weighted by how
    many tries drew it.  Raises AbortedByCrash with a (successes,
    tries_completed) pair if the platform dies mid-run.
    """
    if tries < 0:
        raise InvariantError("tries is nonnegative")
    program = bundled_program("poc_and_branch")
    core = _pin_check(env, target_core)
    profile = env.profile
    geom = _geometry(program, POC_MEMORY, None, POC_SCALARS, 100_000)
    if len(geom.store_slices) != 1:
        raise InvariantError(
            f"{program.source_name}: expected exactly one guarded store, "
            f"found {len(geom.store_slices)}"
        )
    temp = float(env.core_temp_c[core])
    v_nom = env.nominal_voltage_mv()
    q = mean_event_fault_probability(
        profile, core, env.pstate, "poc", env.stressor_fault_multiplier, v_nom, temp
    )
    g = mean_crash_probability(profile, core, env.pstate, v_nom, temp)
    if exposure_slices is None:
        exposure_slices = geom.slices_per_iteration
    c_try = _any_of(g, exposure_slices)

    faulted = rng.random(tries) < q if q > 0.0 else np.zeros(tries, dtype=bool)
    completed = _tries_before_crash(rng, c_try, tries)
    masks = draw_flip_masks(profile, core, int(np.count_nonzero(faulted[:completed])), rng)
    oracle = _DiversionOracle(program, geom, POC_MEMORY, POC_SCALARS)
    successes = sum(n for mask, n in Counter(masks).items() if oracle.diverts(mask))
    if completed < tries:
        raise AbortedByCrash(
            f"platform crashed on try {completed + 1} of {tries}",
            partial=(successes, completed),
        )
    return successes


# ---------------------------------------------------------------------------
# HMAC validation victim

# Fixed secret and payloads: the victim always validates the same MAC, so
# any corrupted recomputation fails the check.
HMAC_KEY = bytes.fromhex(
    "6b2602361a8a3b8017f1b0f4ea4ad18f79b5bc63e3a1fbd6e8c29ad46b2fa723"
)
PAYLOAD_SIZES = {"hmac32": 32, "hmac1k": 1024}
_PAYLOAD_ALIASES = {
    "hmac_32b": "hmac32",
    "hmac_1kb": "hmac1k",
    "32": "hmac32",
    "1024": "hmac1k",
}


def payload_name(size_or_name) -> str:
    key = str(size_or_name).lower()
    key = _PAYLOAD_ALIASES.get(key, key)
    if key not in PAYLOAD_SIZES:
        raise InvariantError(f"payload is one of {sorted(PAYLOAD_SIZES)}, not {size_or_name!r}")
    return key


def hmac_scenario(payload: str) -> str:
    return {"hmac32": "hmac_32b", "hmac1k": "hmac_1kb"}[payload]


def _payload_bytes(payload: str) -> bytes:
    n = PAYLOAD_SIZES[payload]
    return bytes((7 * i + 13) & 0xFF for i in range(n))


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate of a repeated-runs fault campaign."""

    target_core: int
    scenario: str
    tries: int
    successes: int
    crashes: int
    per_run: tuple[tuple[int, int], ...]  # (successes, tries) per run
    mean_per_10k: float
    sigma: float

    def __post_init__(self):
        if self.successes > self.tries:
            raise InvariantError("successes cannot exceed tries")
        if sum(s for s, _ in self.per_run) != self.successes:
            raise InvariantError("per-run successes must sum to the total")
        if sum(t for _, t in self.per_run) != self.tries:
            raise InvariantError("per-run tries must sum to the total")

    @classmethod
    def from_runs(cls, target_core, scenario, per_run, crashes=0) -> "CampaignResult":
        per_run = tuple((int(s), int(t)) for s, t in per_run)
        rates = [10_000.0 * s / t for s, t in per_run if t > 0]
        mean = float(np.mean(rates)) if rates else 0.0
        sigma = float(np.std(rates, ddof=1)) if len(rates) > 1 else 0.0
        return cls(
            target_core=int(target_core),
            scenario=scenario,
            tries=sum(t for _, t in per_run),
            successes=sum(s for s, _ in per_run),
            crashes=int(crashes),
            per_run=per_run,
            mean_per_10k=mean,
            sigma=sigma,
        )

    def to_json(self) -> dict:
        return {
            "target_core": self.target_core,
            "scenario": self.scenario,
            "tries": self.tries,
            "successes": self.successes,
            "crashes": self.crashes,
            "per_run": [list(pair) for pair in self.per_run],
            "mean_per_10k": round(self.mean_per_10k, 4),
            "sigma": round(self.sigma, 4),
        }


def _hmac_single_run(
    ctx: HmacContext,
    profile: ProcessorProfile,
    core: int,
    p_event: float,
    c_try: float,
    tries: int,
    rng: np.random.Generator,
) -> tuple[int, int, bool]:
    """(successes, tries_completed, crashed) for one run of the validator.

    Per try, the number of faulted compression stores is Binomial(E, p);
    the faulted events are drawn without replacement and each gets a flip
    pattern from the core's tables.  Success means the recomputed MAC no
    longer validates.  Draw order: the per-try binomial block, the crash
    geometric, then, per completed faulted try in try order,
    `rng.choice(E, k, replace=False)` and one `draw_flip_pattern` per
    chosen event in event order.  Those detail draws come from one
    `draw_fault_sets` call, which replays them from blocks of raw words
    and leaves `rng` where the calls would (held equal to them by
    `tests/helpers.reference_hmac_detail`).  Every draw comes first; the
    faulted MACs are then recomputed together as numpy lanes
    (`HmacContext.macs_with_faults`, held equal to the scalar reference
    `mac_with_faults` by tests).  No MAC feeds back into a draw, so this
    leaves the seeded stream as it is.
    """
    total = ctx.total_events
    ks = rng.binomial(total, p_event, size=tries) if p_event > 0.0 else np.zeros(tries, dtype=int)
    completed = _tries_before_crash(rng, c_try, tries)
    ks = ks[:completed]
    fault_sets = [
        {ctx.locate_event(g): mask for g, mask in pairs}
        for pairs in draw_fault_sets(profile, core, total, ks[ks > 0].tolist(), rng)
    ]
    successes = sum(mac != ctx.clean_mac for mac in ctx.macs_with_faults(fault_sets))
    return successes, completed, completed < tries


def run_hmac_victim(
    env: PlatformState,
    target_core: int,
    payload_size,
    tries: int,
    *,
    runs: int = 5,
) -> CampaignResult:
    """Mean successes per 10k tries and sigma across `runs` runs.

    Each run owns an independent RNG substream keyed by `env.seed` and its
    index, so the aggregate does not depend on the order runs execute in.
    Raises AbortedByCrash carrying the partial CampaignResult if any run
    crashes; runs after the first crashed one are not started, because the
    simulated machine is gone.
    """
    payload = payload_name(payload_size)
    scenario = hmac_scenario(payload)
    core = _pin_check(env, target_core)
    profile = env.profile
    ctx = HmacContext(HMAC_KEY, _payload_bytes(payload))

    temp = float(env.core_temp_c[core])
    v_nom = env.nominal_voltage_mv()
    p_event = mean_event_fault_probability(
        profile, core, env.pstate, scenario, env.stressor_fault_multiplier, v_nom, temp
    )
    g = mean_crash_probability(profile, core, env.pstate, v_nom, temp)
    # One slice per compression store, plus the undervolt guard margin on
    # both sides of the fault-prone window.
    slices_per_try = ctx.total_events + 2 * GUARD_SLICES
    c_try = _any_of(g, slices_per_try)

    def one(run_index: int):
        gen = rngmod.stream(env.seed, "hmac", payload, core, run_index)
        return _hmac_single_run(ctx, profile, core, p_event, c_try, tries, gen)

    return _campaign_runs(one, runs, core, scenario)


def _campaign_runs(one, runs: int, core: int, scenario: str) -> CampaignResult:
    """Run `one(run_index) -> (successes, tries_completed, crashed)` for
    each run in index order, then aggregate.  The first crashed run raises
    AbortedByCrash carrying the runs up to and including it; no later run
    starts."""
    per_run = []
    for r in range(runs):
        successes, completed, crashed = one(r)
        per_run.append((successes, completed))
        if crashed:
            partial = CampaignResult.from_runs(core, scenario, per_run, crashes=1)
            raise AbortedByCrash(
                f"platform crashed during run {r} of {runs}", partial=partial
            )
    return CampaignResult.from_runs(core, scenario, per_run)
