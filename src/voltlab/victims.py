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
campaign runners read (`PlatformState`).  No runner takes a prepared
victim: the test loop and the probe, which is that loop rerun on each
core, read its store and slice counts from `LOOP_EVENTS` and
`LOOP_SLICES`, a campaign from `POC_EVENTS` or `PAYLOADS`, so this module
loads neither `isa` nor `scanner`.  No runner iterates slice by slice:
the per-event and per-slice probabilities averaged over supply noise are
piecewise exact (see processor.event_band_mean), so a run's first crash
or first fault within its budget is one `_first` draw and its count of
faulted tries one binomial.  A level's rates are two band means over
fault and crash curves read once (`loop_rates`): once per campaign or
probe core by `pinned_rates`, once per core for a whole phase-1 search.
Observable outcomes follow the distribution of the slice-level loop in
tests/slice_reference.py, which `test_campaign_runs_match_the_slice_loop`,
`test_probe_matches_the_slice_loop` and
`test_test_loop_matches_the_slice_loop` check; the draw order differs."""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from typing import NamedTuple

from . import rng as rngmod
from .errors import AbortedByCrash, InvariantError, UnknownStressor
from .msr import Record
from .processor import (
    BitFlipPattern,
    CrashKind,
    ProcessorProfile,
    crash_band_mean,
    crash_curve,
    draw_crash_kind,
    draw_flip_masks,
    draw_flip_pattern,  # noqa: F401 -- bound here so `bench/spans.py` can patch it
    event_band_mean,
    event_curve,
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


def _any_of(p: float, n: float) -> float:
    # 1 - (1-p)^n, stable for tiny p and saturating at certainty.
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def _first(rng, p: float, n: int) -> int:
    """The 0-based index of the first success among `n` trials, each a
    success with chance `p`, or `n` if none succeeds: one geometric draw,
    none when `p` is 0."""
    return n if p <= 0.0 else min(int(rng.geometric(p)) - 1, n)


def _hits_before_crash(rng, q: float, c_try: float, tries: int) -> tuple[int, int]:
    """(hits, tries completed) of `tries` tries, each a hit with chance `q`
    and a crash with chance `c_try`.  Draw order: the `_first` crash try,
    then one binomial count of hits among the tries completed before it
    (none when `q` is 0)."""
    if tries < 0:
        raise InvariantError("tries is nonnegative")
    completed = _first(rng, c_try, tries)
    return (int(rng.binomial(completed, q)) if q > 0.0 else 0), completed


# ---------------------------------------------------------------------------
# The probing test loop

# The comparison loop is `vp1_xor_kernel`, the xor kernel of the paper's
# Listing 1: one eligible store an iteration, which writes the compared
# output itself, so any nonzero mask XORed into it is a Mismatch; five
# slices an iteration.  Written out so that neither phase 1 nor the probe
# prepares a program; tests hold both to a reference run of the program.
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


def loop_rates(event: tuple, crash: tuple, v_nom: float, noise_mv: float, events: int) -> LoopRates:
    """The rates of a loop with `events` eligible stores per iteration at
    nominal voltage `v_nom`, on one core's fault and crash curves
    (`processor.event_curve`, `processor.crash_curve`) under supply noise
    `noise_mv`: one band mean of each curve (none of the fault curve when
    `events` is 0).  The curves are read by the caller, once for as many
    levels as it rates; each band mean is computed afresh on every call."""
    p_event = event_band_mean(v_nom, noise_mv, event) if events else 0.0
    return LoopRates(p_event, _any_of(p_event, events), crash_band_mean(v_nom, noise_mv, crash))


def pinned_rates(env: PlatformState, events: int, scenario: str) -> LoopRates:
    """`loop_rates` on the pinned core of `env`, under the calibration of
    `scenario`: its fault curve read at its temperature and its stressor's
    multiplier, its crash curve below that curve's floor, rated at its
    nominal voltage."""
    profile = env.profile
    event = event_curve(
        profile, env.core, env.pstate, scenario, env.stressor.fault_multiplier, env.temp_c
    )
    crash = crash_curve(profile, profile.pstate_point(env.pstate).ratio, event[1])
    return loop_rates(event, crash, env.nominal_voltage_mv(), profile.noise_mv, events)


def run_test_loop(rates: LoopRates, ratio: int, max_iters: int, rng: rngmod.Stream) -> RunOutcome:
    """Iterate the comparison loop, `LOOP_SLICES` slices per iteration, at
    one level whose chances the caller computed with `loop_rates` for
    `LOOP_EVENTS` stores, at clock ratio `ratio`, which only the crash kind
    reads.

    Returns Mismatch at the first faulted iteration, or a crash if the
    platform dies first; Match after `max_iters` clean laps.  All failure
    modes are RunOutcome values, never exceptions; a negative `max_iters`
    raises InvariantError before any draw.

    Draw order per run: the `_first` crash slice, the `_first` faulted
    iteration, then, if the crash comes first, its kind; quiet rates draw
    nothing.  First-occurrence times use the noise-averaged marginals,
    which is distribution-exact.
    """
    if max_iters < 0:
        raise InvariantError("max_iters is nonnegative")
    crash_it = _first(rng, rates.g_slice, max_iters * LOOP_SLICES) // LOOP_SLICES
    fault_it = _first(rng, rates.q_iter, max_iters)
    # A crash during the faulting iteration preempts the output comparison
    # that happens at its end.
    if crash_it < max_iters and crash_it <= fault_it:
        return RunOutcome.crashed(draw_crash_kind(ratio, rng), crash_it)
    if fault_it == max_iters:
        return RunOutcome.match(max_iters)
    return RunOutcome.mismatch(fault_it + 1)


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


def run_probe_victim(env: PlatformState, tries: int) -> FaultStats:
    """Run the comparison loop, `LOOP_EVENTS` store and `LOOP_SLICES`
    slices a try, `tries` times on the pinned core of `env`, the whole loop
    undervolted; tally its faults.  No program is prepared.

    Draw order: `_hits_before_crash`'s crash try and binomial count of
    faulty tries, then one `draw_flip_masks` block, one mask per faulty
    try, whose one store it faults.  A crash shows as fewer `tries` than
    asked; nothing is raised.
    """
    core = env.core
    gen = rngmod.stream(env.seed, "phase2", env.pstate, core)
    rates = pinned_rates(env, LOOP_EVENTS, "probe")
    c_try = _any_of(rates.g_slice, LOOP_SLICES)

    faults, completed = _hits_before_crash(gen, rates.q_iter, c_try, tries)
    byte_hist = [0] * 16
    mult_hist: dict[int, int] = {}
    for mask, n in Counter(draw_flip_masks(env.profile, core, faults, gen)).items():
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
