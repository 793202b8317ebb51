"""Victim programs and every run that drives them.

Three victims matter here: a probing test loop that re-runs a small vector
kernel and compares outputs, a branch-diversion target whose single store
feeds an integrity check, and an HMAC-SHA256 validator whose compression
stores are the fault surface.  Stressors are co-resident workloads pinned
to the victim's logical partner; they raise the victim core's temperature
and its appetite for faults.

Every run of the three phases lives here (`run_test_loop`,
`run_probe_victim`, `run_poc_victim`, `run_hmac_victim`), with its rates,
exposure, crash cut-off and draws, and so does the pinned victim the
campaign runners read (`PlatformState`).  Only the probe takes a prepared
victim (`loop_victim`), so `isa` and `scanner` load only when one is
prepared; the test loop reads its store and slice counts from
`LOOP_EVENTS` and `LOOP_SLICES`, a campaign from `POC_EVENTS` or
`PAYLOADS`.  No runner iterates slice by slice:
the per-event and per-slice probabilities averaged over supply noise are
piecewise exact (see processor.mean_event_fault_probability), so
first-occurrence times come from geometric draws and a run's count of
faulted tries from one binomial.  Observable outcomes follow the
distribution of the slice-level loop in tests/slice_reference.py, which
`test_campaign_runs_match_the_slice_loop`, `test_probe_matches_the_slice_loop`
and `test_test_loop_matches_the_slice_loop` check; the draw order differs."""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import cache
from typing import NamedTuple

from . import rng as rngmod
from .errors import AbortedByCrash, InterpreterError, InvariantError, UnknownStressor
from .msr import Record
from .processor import (
    BitFlipPattern,
    CrashKind,
    ProcessorProfile,
    draw_crash_kind,
    draw_flip_masks,
    draw_flip_pattern,  # noqa: F401 -- bound here so `bench/spans.py` can patch it
    mean_crash_probability,
    mean_event_fault_probability,
    normalize_pstate,
    victim_temp_target_c,
)

# Slices the undervolt stays applied before and after a victim's
# fault-prone window; campaigns pay crash exposure for both margins.
GUARD_SLICES = 10


# ---------------------------------------------------------------------------
# Stressors


class StressorSpec(Record):
    """What running a workload on the victim's logical partner does.

    `fault_multiplier` scales the calibrated per-event fault ceiling and is
    at least 1 ("none" is exactly 1).  `temp_boost_c` adds to the victim
    core's equilibrium temperature.
    """

    __slots__ = ("name", "fault_multiplier", "temp_boost_c")

    def __init__(self, name: str, fault_multiplier: float, temp_boost_c: float):
        if fault_multiplier < 1.0:
            raise InvariantError("stressor multiplier is at least 1")
        self._set(name, fault_multiplier, temp_boost_c)


STRESSORS = {
    "shift_loop": StressorSpec("shift_loop", 24.75, 3.0),
    "twofish_avx": StressorSpec("twofish_avx", 2.0, 2.0),
    "none": StressorSpec("none", 1.0, 0.0),
}

# Alternate lookup keys accepted anywhere a stressor name is taken.
STRESSOR_ALIASES = {
    "listing2": "shift_loop",
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
# The pinned victim


class PlatformState(Record):
    """The victim pinned to physical `core` at `pstate`, the core-domain
    undervolt `offset_mv` applied, and `stressor` on the core's sibling
    hyperthread; `seed` keys every stream a runner draws.  The attacker's
    tooling holds another physical core, so the pinned core's temperature
    is its equilibrium under the stressor (`temp_c`).

    Refuses a core or pstate the profile does not define with
    UnknownCoreOrPState.
    """

    __slots__ = ("profile", "pstate", "core", "offset_mv", "stressor", "seed")

    def __init__(
        self, profile: ProcessorProfile, pstate, core: int, offset_mv: int = 0,
        stressor: StressorSpec = STRESSORS["none"], seed: int = 0,
    ):
        pstate = normalize_pstate(pstate)
        core = profile.check_core(core)
        profile.pstate_point(pstate)
        self._set(profile, pstate, core, offset_mv, stressor, seed)

    @property
    def temp_c(self) -> float:
        return victim_temp_target_c(self.profile, self.pstate, self.stressor.temp_boost_c)

    def nominal_voltage_mv(self) -> float:
        return self.profile.pstate_point(self.pstate).base_voltage_mv + self.offset_mv


# ---------------------------------------------------------------------------
# Run outcomes


class RunStatus(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    CRASH = "crash"


class RunOutcome(Record):
    """Terminal state of one test-loop run: Match, Mismatch (a faulted
    iteration's output differs from the fault-free one) or a crash, which
    names its kind."""

    __slots__ = ("status", "iterations_executed", "crash")

    def __init__(
        self, status: RunStatus, iterations_executed: int, crash: CrashKind | None = None,
    ):
        if crash is None and status is RunStatus.CRASH:
            raise InvariantError("a crash outcome names its kind")
        self._set(status, iterations_executed, crash)

    @classmethod
    def match(cls, iterations: int) -> "RunOutcome":
        return cls(RunStatus.MATCH, iterations)

    @classmethod
    def mismatch(cls, iterations: int) -> "RunOutcome":
        return cls(RunStatus.MISMATCH, iterations)

    @classmethod
    def crashed(cls, kind: CrashKind, iterations: int) -> "RunOutcome":
        return cls(RunStatus.CRASH, iterations, kind)


# ---------------------------------------------------------------------------
# Prepared victims


class LoopVictim(NamedTuple):
    """A victim program and its fault-free run, prepared by `loop_victim`.
    Every field but the program is immutable, and nothing writes the
    program, whose one mutable part is its `labels` dict; so a bundled
    victim, like the bundled program it holds, is prepared once per process
    and shared by every caller."""

    program: MiniProgram
    memory: bytes  # the reference output
    store_insns: frozenset[int]  # eligible stores the reference executes
    events: int  # eligible store executions in the reference
    slices_per_iteration: int


def loop_victim(program) -> LoopVictim:
    """Scan `program` (a MiniProgram or a bundled name) and run it once
    fault-free on zeroed memory; raises InterpreterError if it does not
    halt.

    A bundled name is prepared once per process, and later calls return
    the same victim; a MiniProgram is prepared on every call."""
    from .isa import DEFAULT_MAX_SLICES, MiniProgram, interpret
    from .scanner import scan

    if not isinstance(program, MiniProgram):
        return _bundled_victim(program)
    eligible = {hit.store_index for hit in scan(program)}
    stores = []  # the hook sees every vector store, and eligible stores are vector stores
    reference = interpret(program, store_hook=stores.append)
    if not reference.halted:
        raise InterpreterError(
            f"{program.source_name}: does not halt within {DEFAULT_MAX_SLICES} slices; "
            "a comparison loop needs a finishing victim"
        )
    executed = [store.insn_index for store in stores if store.insn_index in eligible]
    return LoopVictim(
        program, bytes(reference.memory), frozenset(executed), len(executed), reference.slices
    )


@cache
def _bundled_victim(name: str) -> LoopVictim:
    from .isa import bundled_program

    return loop_victim(bundled_program(name))


def _any_of(p: float, n: float) -> float:
    # 1 - (1-p)^n, stable for tiny p and saturating at certainty.
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def _truncated_geometric(u: float, p: float, n: int, q: float) -> int:
    # First-success index in 0..n-1 conditioned on at least one success
    # among n independent Bernoulli(p) trials, whose chance `q` is
    # `_any_of(p, n)`.
    if p >= 1.0:
        return 0
    j = int(math.log1p(-u * q) / math.log1p(-p))
    return min(j, n - 1)


def _hits_before_crash(rng, q: float, c_try: float, tries: int) -> tuple[int, int]:
    """(hits, tries completed) of `tries` tries, each a hit with chance `q`
    and a crash with chance `c_try`.  Draw order: one geometric of the
    1-based crash try (none when `c_try` is 0), then one binomial count of
    hits among the tries completed (none when `q` is 0)."""
    if tries < 0:
        raise InvariantError("tries is nonnegative")
    completed = tries if c_try <= 0.0 else min(int(rng.geometric(c_try)) - 1, tries)
    return (int(rng.binomial(completed, q)) if q > 0.0 else 0), completed


def _faulted_ordinals(rates: LoopRates, events: int, rng: rngmod.Stream) -> list[int]:
    """Which of the `events` eligible stores of a try or iteration known to
    fault do fault: the first by `_truncated_geometric` on one uniform, then
    each later store with its independent chance, from one uniform block."""
    j = _truncated_geometric(rng.random(), rates.p_event, events, rates.q_iter)
    ordinals = [j]
    if j + 1 < events:
        extra = rng.uniform(size=events - j - 1)
        ordinals.extend(j + 1 + k for k, u in enumerate(extra) if u < rates.p_event)
    return ordinals


# ---------------------------------------------------------------------------
# The probing test loop

# The comparison loop is `vp1_xor_kernel`, the xor kernel of the paper's
# Listing 1: one eligible store an iteration, which writes the compared
# output itself, so any nonzero mask XORed into it is a Mismatch; five
# slices an iteration.  Written out so that phase 1 prepares no program;
# tests hold both to a reference run of the program.
LOOP_EVENTS = 1
LOOP_SLICES = 5


class LoopRates(NamedTuple):
    """Noise-averaged chances at one level, for a victim whose iteration
    (or try) executes a fixed number of eligible stores."""

    p_event: float  # one eligible store faults
    q_iter: float  # at least one of an iteration's eligible stores faults
    g_slice: float  # the platform crashes, per slice

    @property
    def quiet(self) -> bool:
        """Nothing can happen: `run_test_loop` returns Match without a draw."""
        return self.q_iter <= 0.0 and self.g_slice <= 0.0


def loop_rates(
    profile: ProcessorProfile, core: int, pstate: str, v_nom: float, temp: float, events: int,
    stressor_multiplier: float = 1.0, scenario: str = "probe",
) -> LoopRates:
    """The rates of a loop with `events` eligible stores per iteration, at
    nominal voltage `v_nom` and core temperature `temp`, under the
    calibration of `scenario`: one call of each marginal (none of the fault
    marginal when `events` is 0), each reading the window and calibration
    once per call, so nothing is kept from one level to the next."""
    p_event = 0.0
    if events:
        p_event = mean_event_fault_probability(
            profile, core, pstate, scenario, stressor_multiplier, v_nom, temp
        )
    g_slice = mean_crash_probability(profile, core, pstate, v_nom, temp)
    return LoopRates(p_event, _any_of(p_event, events), g_slice)


def pinned_rates(env: PlatformState, events: int, scenario: str) -> LoopRates:
    """`loop_rates` on the pinned core of `env`: at its nominal voltage, its
    temperature and its stressor's multiplier."""
    return loop_rates(
        env.profile, env.core, env.pstate, env.nominal_voltage_mv(), env.temp_c,
        events, env.stressor.fault_multiplier, scenario,
    )


def run_test_loop(
    rates: LoopRates, profile: ProcessorProfile, pstate: str, max_iters: int,
    rng: rngmod.Stream,
) -> RunOutcome:
    """Iterate the comparison loop, `LOOP_SLICES` slices per iteration, at
    one level whose chances the caller computed with `loop_rates` for
    `LOOP_EVENTS` stores; `profile` and `pstate` are read only for the
    crash kind.

    Returns Mismatch at the first faulted iteration, or a crash if the
    platform dies first; Match after `max_iters` clean laps, or at once,
    without a draw, when `rates` is quiet.  All failure modes are
    RunOutcome values, never exceptions; a negative `max_iters` raises
    InvariantError before any draw.

    Draw order per run: the first-crash slice, the first-fault iteration,
    then, if the crash comes first, its kind.  First-occurrence times use
    the noise-averaged marginals, which is distribution-exact.
    """
    if max_iters < 0:
        raise InvariantError("max_iters is nonnegative")
    if rates.quiet:
        return RunOutcome.match(max_iters)
    _, q_iter, g_slice = rates

    crash_it = None  # the iteration the platform dies in, if within the budget
    if g_slice > 0.0:
        crash_slice = int(rng.geometric(g_slice)) - 1
        if crash_slice < max_iters * LOOP_SLICES:
            crash_it = crash_slice // LOOP_SLICES
    fault_iter = None  # the first faulted iteration, if within the budget
    if q_iter > 0.0:
        draw = int(rng.geometric(q_iter))  # 1-based
        if draw <= max_iters:
            fault_iter = draw - 1

    # A crash during the faulting iteration preempts the output comparison
    # that happens at its end.
    if crash_it is not None and (fault_iter is None or crash_it <= fault_iter):
        kind = draw_crash_kind(profile.pstate_point(pstate).ratio, rng)
        return RunOutcome.crashed(kind, crash_it)
    if fault_iter is None:
        return RunOutcome.match(max_iters)
    return RunOutcome.mismatch(fault_iter + 1)


# ---------------------------------------------------------------------------
# The phase-2 probe


class FaultStats(Record):
    """What probing one core turned up: `faults` faulty tries among `tries`,
    and over the faulted stores of those tries, 16 counts, one per byte
    lane, and a map from flipped-bit count to faulted stores."""

    __slots__ = ("core", "tries", "faults", "byte_histogram", "multiplicity_histogram")

    def __init__(
        self, core: int, tries: int, faults: int,
        byte_histogram: tuple[int, ...], multiplicity_histogram: dict[int, int],
    ):
        self._set(core, tries, faults, byte_histogram, multiplicity_histogram)

    @property
    def fault_rate(self) -> float:
        return self.faults / self.tries if self.tries else 0.0

    def bucketed(self) -> tuple[int, int, int]:
        """(single, double, three-or-more) faulted-store counts."""
        singles = self.multiplicity_histogram.get(1, 0)
        doubles = self.multiplicity_histogram.get(2, 0)
        return singles, doubles, sum(self.multiplicity_histogram.values()) - singles - doubles

    def to_json(self) -> dict:
        return {
            "core": self.core,
            "tries": self.tries,
            "faults": self.faults,
            "fault_rate": round(self.fault_rate, 6),
            "byte_histogram": list(self.byte_histogram),
            "multiplicity_histogram": {
                str(k): v for k, v in sorted(self.multiplicity_histogram.items())
            },
        }


def run_probe_victim(victim: LoopVictim, env: PlatformState, tries: int) -> FaultStats:
    """Run the prepared comparison loop `tries` times on the pinned core of
    `env`, the whole program undervolted; tally its faults.

    Draw order: `_hits_before_crash`'s crash geometric and binomial count
    of faulty tries; for a victim with more than one eligible store, then
    `_faulted_ordinals` per faulty try, in try order; then one
    `draw_flip_masks` block, one pattern per faulted store.  A crash shows
    as fewer `tries` than asked; nothing is raised.
    """
    core = env.core
    events = victim.events
    gen = rngmod.stream(env.seed, "phase2", env.pstate, core)
    rates = pinned_rates(env, events, "probe")
    c_try = _any_of(rates.g_slice, victim.slices_per_iteration)

    faults, completed = _hits_before_crash(gen, rates.q_iter, c_try, tries)
    stores = faults  # a faulty try of a one-store victim faults that store
    if events > 1:
        stores = sum(len(_faulted_ordinals(rates, events, gen)) for _ in range(faults))
    byte_hist = [0] * 16
    mult_hist: dict[int, int] = {}
    for mask, n in Counter(draw_flip_masks(env.profile, core, stores, gen)).items():
        for b in BitFlipPattern(0, mask).byte_positions:
            byte_hist[b] += n
        bits = mask.bit_count()
        mult_hist[bits] = mult_hist.get(bits, 0) + n
    return FaultStats(core, completed, faults, tuple(byte_hist), mult_hist)


# ---------------------------------------------------------------------------
# Branch-diversion victim


# The guarded branch's exposure: `poc_and_branch` executes one eligible
# store, checked against all-ones in two 64-bit halves, so any nonzero mask
# XORed into it diverts to `_recovery`.  Written out so that a campaign
# prepares no program; tests hold it to a reference run of the program.
POC_EVENTS = 1


def run_poc_enclave(q: float, c_try: float, tries: int, rng: rngmod.Stream) -> int:
    """Run a campaign victim `tries` times; count its successes.  `q` is
    the per-try success chance and `c_try` the per-try crash chance, both
    read once per campaign by the caller.

    This runs both campaign victims, the guarded branch (`run_poc_victim`)
    and the HMAC validator (`run_hmac_victim`): a try succeeds when any of
    its exposed stores faults, so no fault set or mask is drawn.

    Draw order: `_hits_before_crash`'s crash geometric, then its binomial
    count of successes among the tries completed, whatever `tries` is.
    Raises AbortedByCrash with a (successes, tries_completed) pair if the
    platform dies mid-run.
    """
    successes, completed = _hits_before_crash(rng, q, c_try, tries)
    if completed < tries:
        raise AbortedByCrash(
            f"platform crashed on try {completed + 1} of {tries}",
            partial=(successes, completed),
        )
    return successes


def run_poc_victim(env: PlatformState, tries: int, *, runs: int = 5) -> CampaignResult:
    """`run_hmac_victim` for the guarded-branch victim on the pinned core of
    `env`, whose exposure is its one guarded store (`POC_EVENTS`): every
    nonzero mask diverts, so a try succeeds when that store faults.  No
    program is prepared.  Runs are keyed ("phase3", "poc", core, run)."""
    return _campaign(env, POC_EVENTS, "poc", ("phase3", "poc"), tries, runs)


# ---------------------------------------------------------------------------
# HMAC validation victim

# Fixed secret and payloads: the victim always validates the same MAC, so
# any corrupted recomputation fails the check.
HMAC_KEY = bytes.fromhex(
    "6b2602361a8a3b8017f1b0f4ea4ad18f79b5bc63e3a1fbd6e8c29ad46b2fa723"
)
# Each payload the validator checks: its calibration scenario, its message
# and its exposed compression stores (14 per SHA-256 block), written out so
# that a campaign hashes nothing; a test holds them to `HmacContext`.
PAYLOADS = {
    name: (scenario, bytes((7 * i + 13) & 0xFF for i in range(size)), events)
    for name, scenario, size, events in (
        ("hmac32", "hmac_32b", 32, 56), ("hmac1k", "hmac_1kb", 1024, 280),
    )
}


class CampaignResult(Record):
    """Aggregate of a repeated-runs fault campaign; `per_run` holds
    (successes, tries) per run."""

    __slots__ = (
        "target_core", "scenario", "tries", "successes", "crashes", "per_run",
        "mean_per_10k", "sigma",
    )

    def __init__(
        self, target_core: int, scenario: str, tries: int, successes: int, crashes: int,
        per_run: tuple[tuple[int, int], ...], mean_per_10k: float, sigma: float,
    ):
        if successes > tries:
            raise InvariantError("successes cannot exceed tries")
        if sum(s for s, _ in per_run) != successes:
            raise InvariantError("per-run successes must sum to the total")
        if sum(t for _, t in per_run) != tries:
            raise InvariantError("per-run tries must sum to the total")
        self._set(target_core, scenario, tries, successes, crashes, per_run, mean_per_10k, sigma)

    @classmethod
    def from_runs(cls, target_core, scenario, per_run, crashes=0) -> "CampaignResult":
        per_run = tuple((int(s), int(t)) for s, t in per_run)
        rates = [10_000.0 * s / t for s, t in per_run if t > 0]
        mean = math.fsum(rates) / len(rates) if rates else 0.0
        sigma = 0.0
        if len(rates) > 1:
            sigma = math.sqrt(math.fsum((r - mean) ** 2 for r in rates) / (len(rates) - 1))
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


def run_hmac_victim(
    env: PlatformState, payload: str, tries: int, *, runs: int = 5
) -> CampaignResult:
    """Mean successes per 10k tries and sigma across `runs` runs of the
    HMAC validator on the pinned core of `env`, checking `payload`, a key
    of PAYLOADS; any other value raises InvariantError.

    The exposure is the validator's compression stores, as many as PAYLOADS
    counts; no `HmacContext` is built.  A try succeeds when at least one of
    them faults: the victim always validates the same MAC, and every
    nonempty fault set changes it.  A single faulted store always changes
    its block's output, and past that block only a SHA-256 collision could
    undo the change (see `sha256sim`).  A set of two or more stores could in
    principle cancel, as a SHA-256 local collision; for those the premise
    rests on a grid test that recomputes the faulted MACs, not on a proof.
    So the verdict is closed form, and no fault set or MAC is computed: each
    run is one `run_poc_enclave`, keyed ("hmac", payload, core, run).

    Raises AbortedByCrash carrying the partial CampaignResult if any run
    crashes; runs after the first crashed one are not started, because the
    simulated machine is gone.
    """
    try:
        scenario, _, events = PAYLOADS[payload]
    except (KeyError, TypeError):
        raise InvariantError(f"payload is one of {sorted(PAYLOADS)}, not {payload!r}") from None
    return _campaign(env, events, scenario, ("hmac", payload), tries, runs)


def _campaign(
    env: PlatformState, events: int, scenario: str, key: tuple, tries: int, runs: int
) -> CampaignResult:
    """The campaign both runners share: rates read once for `events` exposed
    stores per try, then one `run_poc_enclave` per run, in index order, on
    a substream keyed by `env.seed`, `key`, the core and the run index, so
    no run depends on another.  A crashed run raises AbortedByCrash
    carrying the runs up to and including it; no later run starts."""
    if runs < 1:
        raise InvariantError("a campaign makes at least one run")
    _, q, g = pinned_rates(env, events, scenario)
    # One slice per exposed store, plus the undervolt guard margin on both
    # sides of the fault-prone window.
    c_try = _any_of(g, events + 2 * GUARD_SLICES)
    per_run = []
    for r in range(runs):
        gen = rngmod.stream(env.seed, *key, env.core, r)
        try:
            per_run.append((run_poc_enclave(q, c_try, tries, gen), tries))
        except AbortedByCrash as abort:
            per_run.append(abort.partial)
            partial = CampaignResult.from_runs(env.core, scenario, per_run, crashes=1)
            raise AbortedByCrash(
                f"platform crashed during run {r} of {runs}", partial=partial
            ) from None
    return CampaignResult.from_runs(env.core, scenario, per_run)
