"""Three-phase attack workflow over a simulated platform.

Phase 1 searches offline, on a machine the attacker owns, for the voltage
band where silent faults appear but the system still lives.  Phase 2
probes each core of the target at the offsets the plan suggests, looking
for the most fault-prone one.  Phase 3 pins the victim at the planned
offset and hands the campaign to its runner (`victims.run_poc_victim` or
`victims.run_hmac_victim`), which undervolts only around the victim's
fault-prone window and fans out the runs.  This module holds the search
policy, the pinning and the dispatch; every run belongs to `victims`, but
for phase 1's store-free stage, whose level is one draw of its first crash.

Everything here is deterministic given a seed: each (phase, pstate, core,
level) gets its own keyed RNG substream, so campaigns reproduce exactly
whatever order their runs execute in.
"""

from __future__ import annotations

from . import rng as rngmod
from .errors import AbortedByCrash, InvariantError, NoWindowFound
from .msr import (
    IA32_MISC_ENABLE,
    IA32_THERM_INTERRUPT,
    OC_MAILBOX_MSR,
    OFFSET_MAX_MV,
    OFFSET_MIN_MV,
    MsrWrite,
    PState,
    PStateInterface,
    Record,
    VoltageDomain,
    encode_offset,
    plan_pstate_request,
)
from .processor import (
    ProcessorProfile,
    crash_band_mean,
    crash_curve,
    event_curve,
    load_profile,
    normalize_pstate,
    victim_temp_target_c,
    draw_flip_pattern,  # noqa: F401 -- bound here so `bench/spans.py` can patch it
)
from .victims import (
    LOOP_EVENTS,
    CampaignResult,
    FaultStats,
    PlatformState,
    RunStatus,
    loop_rates,
    run_hmac_victim,
    run_poc_victim,
    run_probe_victim,
    run_test_loop,
    stressor_profile,
)

STEP_MV = 5
# The deepest level of the search grid that the mailbox can encode; stage
# two settles there on a core that never crashes above it.
_DEEPEST_MV = -(-OFFSET_MIN_MV // STEP_MV) * STEP_MV
# How far above an edge a noise band must stay for phase 1 to jump past
# its level: far above float rounding at millivolt scale, far below a step.
_EDGE_MARGIN_MV = 1e-3
# Phase-1 loop lengths: comparison-loop iterations per stage-one level,
# and how many crashes at one stage-one level mean there is no window above
# instability.
ITERS_PER_LEVEL = 20_000
CRASH_RETRIES = 3
# Slices of store-free switching work per stage-two level: 100 laps of a
# 15-slice scratch loop of scalar pushes and pops.  With nothing to
# mismatch, a level survives it only if the platform itself does, so
# stage two reads only the crash chance; a test holds the count to the loop.
STABILITY_SLICES = 1_500


# ---------------------------------------------------------------------------
# Plan and report types


class VoltagePlan(Record):
    """What the offline search learned about one pstate: per core, the
    window top in volts and the attack offset, a multiple of STEP_MV."""

    __slots__ = ("pstate", "window_top_v", "chosen_offset_mv", "crashes_during_search")

    def __init__(
        self, pstate: str, window_top_v: tuple[float, ...], chosen_offset_mv: tuple[int, ...],
        crashes_during_search: int = 0,
    ):
        for off in chosen_offset_mv:
            if off % STEP_MV:
                raise InvariantError(f"offset {off} is not a {STEP_MV} mV step")
            if not OFFSET_MIN_MV <= off <= OFFSET_MAX_MV:
                raise InvariantError(f"offset {off} outside the encodable range")
        if len(window_top_v) != len(chosen_offset_mv):
            raise InvariantError("per-core arrays disagree on core count")
        self._set(pstate, window_top_v, chosen_offset_mv, crashes_during_search)

    def offset_for(self, core: int) -> int:
        return self.chosen_offset_mv[core]

    def check_cores(self, profile: ProcessorProfile) -> None:
        """Refuse `profile` unless this plan has one entry per core of it."""
        if len(self.chosen_offset_mv) != profile.physical_cores:
            raise InvariantError(
                f"the plan covers {len(self.chosen_offset_mv)} cores, "
                f"the {profile.name} has {profile.physical_cores}"
            )

    def to_json(self) -> dict:
        return {
            "pstate": self.pstate,
            "window_top_v": [round(v, 4) for v in self.window_top_v],
            "chosen_offset_mv": list(self.chosen_offset_mv),
            "step_mv": STEP_MV,
            "crashes_during_search": self.crashes_during_search,
        }


class ProbeReport(Record):
    __slots__ = ("stats",)

    def __init__(self, stats: tuple[FaultStats, ...]):
        self._set(stats)

    @property
    def best_core(self) -> int:
        """The core with the highest fault rate, the lowest on a tie."""
        return max(self.stats, key=lambda s: (s.fault_rate, -s.core)).core

    def to_json(self) -> dict:
        return {
            "best_core": self.best_core,
            "stats": [s.to_json() for s in self.stats],
        }


class SystemConfig(Record):
    """How the machine was partitioned and quieted for the attack: the logical
    cores of the attacker tooling, and those reserved for the victim side."""

    __slots__ = ("attack_group", "victim_group", "drivers_disabled", "pstate_pin")

    def __init__(
        self, attack_group: tuple[int, ...], victim_group: tuple[int, ...],
        drivers_disabled: tuple[str, ...], pstate_pin: str,
    ):
        if set(attack_group) & set(victim_group):
            raise InvariantError("attack and victim groups overlap")
        self._set(attack_group, victim_group, drivers_disabled, pstate_pin)


# ---------------------------------------------------------------------------
# System setup


def setup_system(
    profile: ProcessorProfile | str,
    pstate,
    target_core: int,
    stressor: str,
    *,
    seed: int = 0,
) -> tuple[PlatformState, SystemConfig, list[MsrWrite]]:
    """Pin the victim, partition the machine and emit the MSR plan that
    quiets it.

    The returned state pins the victim to physical `target_core`, with
    `stressor` on its sibling hyperthread and no undervolt yet.  Both
    hardware threads of the first other physical core are kept for the
    attacker's tooling and every other process; the rest belong to the
    victim side.  The write plan claims software p-state control, pins the
    ratio, masks thermal/turbo interference, and parks the core voltage
    offset at zero.
    """
    if isinstance(profile, str):
        profile = load_profile(profile)
    spec = stressor_profile(stressor)
    state = PlatformState(profile, pstate, target_core, stressor=spec, seed=seed)
    phys = profile.physical_cores
    attack_core = next(c for c in range(phys) if c != state.core)
    attack_group = (attack_core, attack_core + phys)
    victim_group = tuple(
        l for l in range(profile.logical_cores()) if l not in attack_group
    )
    config = SystemConfig(
        attack_group=attack_group,
        victim_group=victim_group,
        drivers_disabled=("acpi_cpufreq", "intel_pstate"),
        pstate_pin=state.pstate,
    )

    writes = plan_pstate_request(
        PState(profile.pstate_point(state.pstate).ratio, profile.base_clock_mhz),
        PStateInterface.EIST,
    )
    writes.append(MsrWrite(IA32_MISC_ENABLE, 1 << 38))  # turbo disengage
    writes.append(MsrWrite(IA32_THERM_INTERRUPT, 0))  # mask thermal interrupts
    writes.append(MsrWrite(OC_MAILBOX_MSR, encode_offset(VoltageDomain.CORES, 0)))
    return state, config, writes


# ---------------------------------------------------------------------------
# Phase 1: find the exploitable window


def _landing_offset(start_mv: int, edge_mv: float, base_mv: float, noise_mv: float) -> int:
    """The highest grid level at or below `start_mv` whose noise band may
    reach below `edge_mv`.

    Every level above it has its whole band at least `_EDGE_MARGIN_MV`
    above the edge, so every midpoint the marginals sample lies at or above
    the edge, where neither the fault nor the crash chance is positive.
    """
    reach = edge_mv + noise_mv - base_mv + _EDGE_MARGIN_MV  # live offsets are below this
    if start_mv < reach:
        return start_mv
    return start_mv - STEP_MV * (int((start_mv - reach) // STEP_MV) + 1)


def phase1_find_window(
    profile: ProcessorProfile | str, pstate=None, *, seed: int = 0
) -> VoltagePlan:
    """Descend in 5 mV steps from the nominal voltage on an expendable
    machine until faults appear.

    Stage one, per core: run the comparison loop (`run_test_loop`) at each
    level until the first Mismatch; that level is the core's window top.
    Every fault of that loop is a Mismatch, so a level is a race of two
    geometric draws, its first crash and its first fault.  Stage two keeps
    descending with store-free work, `STABILITY_SLICES` slices per level,
    until the machine dies; the level one step above the first crash
    becomes the core's attack offset, or the deepest encodable level if
    none crashes.  Store-free work cannot mismatch, so a stage-two level is
    one geometric draw of its first-crash slice.
    Crashing costs a simulated reboot and a retry from the last safe
    level; a level that keeps crashing before any fault was seen means
    there is no usable window above the instability boundary.

    No program is prepared: the comparison loop's store count is
    `LOOP_EVENTS`.  The core temperature and the pstate are read once per
    call (no stressor is pinned, so the temperature depends on neither
    core nor offset), and each core's curves once per core: its fault
    curve under the "probe" calibration, whose top and floor are the window
    top and the instability boundary, and its crash curve below that
    floor.  Each level's chances are computed once, from those curves: a
    stage-one level's rates by `loop_rates` (one band mean of each curve),
    handed to `run_test_loop`, and a stage-two level's crash chance by one
    `crash_band_mean`.  A level that can draw nothing (fault and crash
    chances both zero in stage one, crash chance zero in stage two) is
    stepped over, as `run_test_loop` would return Match there without
    touching its stream.
    Each stage first jumps to the highest level whose noise band reaches
    below its edge (the window top in stage one, the instability boundary
    in stage two); the jump is conservative, so it can only land on or
    above the first level that can draw, and the walk goes on from there.

    Each running level opens its own `rng.stream`, keyed
    ("phase1", pstate, core, offset, retries) in stage one and
    ("phase1-stability", pstate, core, offset) in stage two, so a level
    draws the same whatever ran before it; a stepped-over level opens none.
    """
    if isinstance(profile, str):
        profile = load_profile(profile)
    if pstate is None:
        pstate = profile.default_attack_pstate
    pstate = normalize_pstate(pstate)
    point = profile.pstate_point(pstate)
    base, noise = point.base_voltage_mv, profile.noise_mv

    window_top_mv: list[float | None] = [None] * profile.physical_cores
    chosen_offset: list[int] = [0] * profile.physical_cores
    crashes = 0

    temp = victim_temp_target_c(profile, pstate, 0.0)  # any core's, with no stressor
    for core in range(profile.physical_cores):
        event = event_curve(profile, core, pstate, "probe", 1.0, temp)
        top, floor = event[0], event[1]
        crash = crash_curve(profile, point.ratio, floor)

        # Stage 1: walk down until the comparison loop reports corruption.
        offset = _landing_offset(0, top, base, noise)
        retries = 0
        while offset >= OFFSET_MIN_MV:
            rates = loop_rates(event, crash, base + offset, noise, LOOP_EVENTS)
            if rates.quiet:
                offset -= STEP_MV
                continue
            gen = rngmod.stream(seed, "phase1", pstate, core, offset, retries)
            out = run_test_loop(rates, point.ratio, ITERS_PER_LEVEL, gen)
            if out.status is RunStatus.MISMATCH:
                window_top_mv[core] = base + offset
                break
            if out.status is RunStatus.CRASH:
                crashes += 1
                retries += 1
                if retries >= CRASH_RETRIES:
                    break  # repeatedly dies fault-free: no window here
                continue  # reboot landed us back at the last safe level
            offset -= STEP_MV
        if window_top_mv[core] is None:
            continue

        # Stage 2: keep descending with store-free work until it crashes.
        offset = int(window_top_mv[core] - base) - STEP_MV
        offset = _landing_offset(offset, floor, base, noise)
        found = None
        while offset >= OFFSET_MIN_MV:
            g_slice = crash_band_mean(base + offset, noise, crash)
            if g_slice <= 0.0:
                offset -= STEP_MV
                continue
            gen = rngmod.stream(seed, "phase1-stability", pstate, core, offset)
            if gen.geometric(g_slice) <= STABILITY_SLICES:  # the 1-based first-crash slice
                crashes += 1
                found = offset + STEP_MV
                break
            offset -= STEP_MV
        chosen_offset[core] = found if found is not None else _DEEPEST_MV

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


# ---------------------------------------------------------------------------
# Phase 2: probe the target's cores


def phase2_probe_cores(
    state: PlatformState,
    plan: VoltagePlan,
    tries_per_core: int = 10_000,
) -> ProbeReport:
    """Rerun phase 1's comparison loop (`vp1_xor_kernel`) on each core in
    turn, at the core's planned offset with the stressor of `state`, and
    tally its faults there with `victims.run_probe_victim`, which prepares
    no program.  Raises InvariantError for a plan made for another core
    count, and AbortedByCrash carrying the partial per-core stats if a
    probe kills the platform.
    """
    plan.check_cores(state.profile)

    stats: list[FaultStats] = []
    for core in range(state.profile.physical_cores):
        env = PlatformState(
            state.profile, plan.pstate, core, plan.offset_for(core), state.stressor, state.seed
        )
        stats.append(run_probe_victim(env, tries_per_core))
        if stats[-1].tries < tries_per_core:
            raise AbortedByCrash(
                f"probe crashed the platform on core {core}",
                partial=ProbeReport(tuple(stats)),
            )
    return ProbeReport(tuple(stats))


# ---------------------------------------------------------------------------
# Phase 3: the campaign


def phase3_attack(
    state: PlatformState,
    plan: VoltagePlan,
    victim: str,
    runs: int = 5,
    tries_per_run: int = 10_000,
) -> CampaignResult:
    """Run the campaign on the pinned core of `state`, with its stressor, at
    the core's planned offset: `victim` is "poc" (`run_poc_victim`) or an
    HMAC payload (`run_hmac_victim`).  Raises InvariantError for a plan
    made for another core count."""
    plan.check_cores(state.profile)
    core = state.core
    env = PlatformState(
        state.profile, plan.pstate, core, plan.offset_for(core), state.stressor, state.seed
    )
    if victim == "poc":
        return run_poc_victim(env, tries_per_run, runs=runs)
    return run_hmac_victim(env, victim, tries_per_run, runs=runs)


# ---------------------------------------------------------------------------
# One-call campaign


def run_campaign(
    profile: ProcessorProfile | str,
    victim: str,
    target_core: int,
    stressor: str,
    seed: int = 0,
    runs: int = 5,
    tries_per_run: int = 10_000,
    pstate=None,
) -> tuple[CampaignResult, dict]:
    """setup_system + phase1 + phase3, returning the result and a context
    dict (profile, pstate, plan, offsets) that reports are built from."""
    if isinstance(profile, str):
        profile = load_profile(profile)
    if pstate is None:
        pstate = profile.default_attack_pstate
    pstate = normalize_pstate(pstate)
    state, config, writes = setup_system(
        profile, pstate, target_core, stressor, seed=seed
    )
    plan = phase1_find_window(profile, pstate=pstate, seed=seed)
    result = phase3_attack(state, plan, victim, runs, tries_per_run)
    offset = plan.offset_for(state.core)
    base = profile.pstate_point(pstate).base_voltage_mv
    context = {
        "model": profile.name,
        "pstate": pstate,
        "stressor": state.stressor.name,
        "offset_mv": offset,
        "attack_voltage_v": round((base + offset) / 1000.0, 4),
        "plan": plan.to_json(),
        "system": {
            "attack_group": list(config.attack_group),
            "victim_group": list(config.victim_group),
            "drivers_disabled": list(config.drivers_disabled),
            "msr_writes": [
                {"address": f"{w.address:#x}", "value": f"{w.value:#018x}"}
                for w in writes
            ],
        },
    }
    return result, context
