"""Three-phase attack workflow over a simulated platform.

Phase 1 searches offline, on a machine the attacker owns, for the voltage
band where silent faults appear but the system still lives.  Phase 2
probes each core of the target at the offsets the plan suggests, looking
for the most fault-prone one.  Phase 3 runs the actual campaign against a
victim workload, undervolting only around the victim's fault-prone window.

Everything here is deterministic given a seed: each (phase, pstate, core,
level) gets its own keyed RNG substream, so campaigns reproduce exactly
whatever order their runs execute in.  Runs execute serially, in index
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rng as rngmod
from .errors import AbortedByCrash, InvariantError, NoWindowFound
from .isa import bundled_program, parse_program
from .msr import (
    IA32_MISC_ENABLE,
    IA32_THERM_INTERRUPT,
    MsrWrite,
    PState,
    PStateInterface,
    VoltageDomain,
    encode_offset,
    plan_pstate_request,
)
from .processor import (
    ROLE_ATTACKER,
    ROLE_IDLE,
    ROLE_STRESSOR,
    ROLE_VICTIM,
    PlatformState,
    ProcessorProfile,
    core_temp_targets,
    load_profile,
    region_boundaries_mv,
    normalize_pstate,
    draw_flip_masks,
    draw_flip_pattern,  # noqa: F401 -- bound here so `bench/spans.py` can patch it
)
from .scanner import estimate_window, scan
from .victims import (
    GUARD_SLICES,
    POC_MEMORY,
    POC_SCALARS,
    CampaignResult,
    RunStatus,
    _any_of,
    _campaign_runs,
    _geometry,
    _resolve_program,
    _tries_before_crash,
    loop_rates,
    payload_name,
    run_hmac_victim,
    run_poc_enclave,
    run_test_loop,
    stressor_profile,
)

__all__ = [
    "FaultStats",
    "ProbeReport",
    "SystemConfig",
    "VoltagePlan",
    "phase1_find_window",
    "phase2_probe_cores",
    "phase3_attack",
    "run_campaign",
    "setup_system",
]

OFFSET_FLOOR_MV = -1024
STEP_MV = 5
# How far above an edge a noise band must stay for phase 1 to jump past
# its level: far above float rounding at millivolt scale, far below a step.
_EDGE_MARGIN_MV = 1e-3
# Phase-1 loop lengths: comparison-loop iterations per stage-one level,
# scratch-loop iterations per stage-two level, and how many crashes at
# one stage-one level mean there is no window above instability.
ITERS_PER_LEVEL = 20_000
STABILITY_ITERS = 100
CRASH_RETRIES = 3

# Switching work with no vector stores: nothing to mismatch, so a level
# survives it only if the platform itself does.  Phase 1 uses it to find
# the instability boundary after the fault window is known.
_STABILITY_SOURCE = "\n".join(
    ["# scratch loop, scalar traffic only"]
    + ["push %r10", "pop %r10", "push %r11", "pop %r11"] * 3
    + ["push %r12", "pop %r12", "halt"]
)
_STABILITY_PROGRAM = parse_program(_STABILITY_SOURCE, "stability_check")


# ---------------------------------------------------------------------------
# Plan and report types


@dataclass(frozen=True)
class VoltagePlan:
    """What the offline search learned about one pstate."""

    pstate: str
    window_top_v: tuple[float, ...]  # per core, volts
    chosen_offset_mv: tuple[int, ...]  # per core, attack offset
    step_mv: int = STEP_MV
    crashes_during_search: int = 0

    def __post_init__(self):
        for off in self.chosen_offset_mv:
            if off % self.step_mv:
                raise InvariantError(f"offset {off} is not a {self.step_mv} mV step")
            if not OFFSET_FLOOR_MV <= off <= 1023:
                raise InvariantError(f"offset {off} outside the encodable range")
        if len(self.window_top_v) != len(self.chosen_offset_mv):
            raise InvariantError("per-core arrays disagree on core count")

    def offset_for(self, core: int) -> int:
        return self.chosen_offset_mv[core]

    def to_json(self) -> dict:
        return {
            "pstate": self.pstate,
            "window_top_v": [round(v, 4) for v in self.window_top_v],
            "chosen_offset_mv": list(self.chosen_offset_mv),
            "step_mv": self.step_mv,
            "crashes_during_search": self.crashes_during_search,
        }


@dataclass(frozen=True)
class FaultStats:
    """What probing one core turned up."""

    core: int
    tries: int
    faults: int
    byte_histogram: tuple[int, ...]  # 16 counts, one per byte lane
    multiplicity_histogram: dict[int, int]  # flipped-bit count -> faults

    @property
    def fault_rate(self) -> float:
        return self.faults / self.tries if self.tries else 0.0

    def bucketed(self) -> tuple[int, int, int]:
        """(single, double, three-or-more) fault counts."""
        singles = self.multiplicity_histogram.get(1, 0)
        doubles = self.multiplicity_histogram.get(2, 0)
        return singles, doubles, self.faults - singles - doubles

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


@dataclass(frozen=True)
class ProbeReport:
    stats: tuple[FaultStats, ...]
    best_core: int

    def to_json(self) -> dict:
        return {
            "best_core": self.best_core,
            "stats": [s.to_json() for s in self.stats],
        }


@dataclass(frozen=True)
class SystemConfig:
    """How the machine was partitioned and quieted for the attack."""

    attack_group: tuple[int, ...]  # logical cores running the attacker tooling
    victim_group: tuple[int, ...]  # logical cores reserved for the victim side
    drivers_disabled: tuple[str, ...]
    pstate_pin: str
    interference_flags: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.attack_group) & set(self.victim_group):
            raise InvariantError("attack and victim groups overlap")


# ---------------------------------------------------------------------------
# System setup


def _pinned_state(
    profile: ProcessorProfile,
    pstate: str,
    target_core: int,
    stressor_name: str,
    seed: int,
    offset_mv: int = 0,
) -> PlatformState:
    """PlatformState with the victim pinned, the attacker on the first
    other physical core, and temperatures settled."""
    spec = stressor_profile(stressor_name)
    phys = profile.physical_cores
    attack_core = next(c for c in range(phys) if c != target_core)
    roles = [ROLE_IDLE] * profile.logical_cores()
    roles[attack_core] = ROLE_ATTACKER
    roles[attack_core + phys] = ROLE_ATTACKER
    roles[target_core] = ROLE_VICTIM
    if spec.name != "none":
        roles[target_core + phys] = ROLE_STRESSOR
    state = PlatformState(
        profile=profile,
        pstate=pstate,
        offset_mv={int(VoltageDomain.CORES): int(offset_mv)},
        assignment=tuple(roles),
        stressor_name=spec.name,
        stressor_fault_multiplier=spec.fault_multiplier,
        stressor_temp_boost_c=spec.temp_boost_c,
        seed=seed,
    )
    # Thermal equilibrium before anything runs; one long relaxation step.
    state.core_temp_c = core_temp_targets(state).astype(float)
    return state


def setup_system(
    profile: ProcessorProfile | str,
    pstate,
    target_core: int,
    stressor: str,
    *,
    seed: int = 0,
) -> tuple[PlatformState, SystemConfig, list[MsrWrite]]:
    """Partition the machine and emit the MSR plan that quiets it.

    One physical core (both hardware threads) is kept for the attacker's
    tooling and every other process; the rest belong to the victim side,
    with the victim on `target_core` and the stressor on its logical
    partner.  The write plan claims software p-state control, pins the
    ratio, masks thermal/turbo interference, and parks the core voltage
    offset at zero.
    """
    if isinstance(profile, str):
        profile = load_profile(profile)
    pstate = normalize_pstate(pstate)
    target_core = profile.check_core(target_core)
    point = profile.pstate_point(pstate)

    state = _pinned_state(profile, pstate, target_core, stressor, seed)
    attack_group = tuple(
        l for l, role in enumerate(state.assignment) if role == ROLE_ATTACKER
    )
    victim_group = tuple(
        l for l in range(profile.logical_cores()) if l not in attack_group
    )
    config = SystemConfig(
        attack_group=attack_group,
        victim_group=victim_group,
        drivers_disabled=("acpi_cpufreq", "intel_pstate"),
        pstate_pin=pstate,
        interference_flags={
            "thermal_control_circuit": True,
            "turbo": True,
            "package_c_states": True,
            "frequency_scaling": True,
        },
    )

    writes = plan_pstate_request(
        PState(point.ratio, profile.base_clock_mhz), PStateInterface.EIST
    )
    writes.append(MsrWrite(IA32_MISC_ENABLE, 1 << 38))  # turbo disengage
    writes.append(MsrWrite(IA32_THERM_INTERRUPT, 0))  # mask thermal interrupts
    writes.append(MsrWrite(0x150, encode_offset(VoltageDomain.CORES, 0)))
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
    profile_clone: ProcessorProfile | str,
    victim_program="vp1_xor_kernel",
    pstate=None,
    start_offset_mv: int = 0,
    *,
    seed: int = 0,
) -> VoltagePlan:
    """Descend in 5 mV steps on an expendable machine until faults appear.

    Stage one, per core: run the comparison loop at each level until the
    first Mismatch; that level is the core's window top.  Stage two keeps
    descending with a store-free scratch loop until the machine dies; the
    level one step above the first crash becomes the core's attack offset.
    Crashing costs a simulated reboot and a retry from the last safe
    level; a level that keeps crashing before any fault was seen means
    there is no usable window above the instability boundary.

    The loop runs only at levels where it can draw.  A level whose fault
    and crash chances are both zero is exactly one where `run_test_loop`
    would return Match without touching its stream, so it is stepped over.
    Each stage first jumps to the highest level whose noise band reaches
    below its edge (the window top in stage one, the instability boundary
    in stage two); the jump is conservative, so it can only land on or
    above the first level that can draw, and the walk goes on from there.
    """
    if isinstance(profile_clone, str):
        profile_clone = load_profile(profile_clone)
    profile = profile_clone
    if pstate is None:
        pstate = profile.default_attack_pstate
    pstate = normalize_pstate(pstate)
    if start_offset_mv % STEP_MV:
        raise InvariantError("the search grid moves in 5 mV steps")
    base = profile.pstate_point(pstate).base_voltage_mv
    # Resolved before any level, so a bad victim raises even if every
    # level is then stepped over.
    victim = _resolve_program(victim_program)
    victim_events = len(_geometry(victim, None, None, None, 100_000).store_slices)
    stability_events = len(_geometry(_STABILITY_PROGRAM, None, None, None, 100_000).store_slices)

    window_top_mv: list[float | None] = [None] * profile.physical_cores
    chosen_offset: list[int] = [0] * profile.physical_cores
    crashes = 0

    for core in range(profile.physical_cores):
        # The pinned core's temperature does not depend on the offset.
        temp = float(_pinned_state(profile, pstate, core, "none", seed).core_temp_c[core])
        _, top, floor = region_boundaries_mv(profile, core, pstate, temp)

        # Stage 1: walk down until the comparison loop reports corruption.
        offset = _landing_offset(start_offset_mv, top, base, profile.noise_mv)
        retries = 0
        while offset >= OFFSET_FLOOR_MV:
            if loop_rates(profile, core, pstate, base + offset, temp, victim_events).quiet:
                offset -= STEP_MV
                continue
            env = _pinned_state(profile, pstate, core, "none", seed, offset)
            gen = rngmod.stream(seed, "phase1", pstate, core, offset, retries)
            out = run_test_loop(victim, env, ITERS_PER_LEVEL, gen)
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

        # Stage 2: keep descending with scalar-only work until it crashes.
        offset = int(window_top_mv[core] - base) - STEP_MV
        offset = _landing_offset(offset, floor, base, profile.noise_mv)
        found = None
        while offset >= OFFSET_FLOOR_MV:
            if loop_rates(profile, core, pstate, base + offset, temp, stability_events).quiet:
                offset -= STEP_MV
                continue
            env = _pinned_state(profile, pstate, core, "none", seed, offset)
            gen = rngmod.stream(seed, "phase1-stability", pstate, core, offset)
            out = run_test_loop(_STABILITY_PROGRAM, env, STABILITY_ITERS, gen)
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


# ---------------------------------------------------------------------------
# Phase 2: probe the target's cores


def phase2_probe_cores(
    state: PlatformState,
    plan: VoltagePlan,
    tries_per_core: int = 10_000,
) -> ProbeReport:
    """Pin the `vp1_xor_kernel` victim to each core at its planned offset;
    tally faults.

    Per core: the per-try fault chance comes from the noise-averaged event
    marginal, the number of faulty tries from one binomial, and each fault
    gets a flip pattern from the core's tables.  Draw order per core: the
    crash geometric, the binomial, then the faults' flip patterns from one
    `draw_flip_masks` call, which consumes the core's stream exactly as one
    `draw_flip_pattern` per fault would.  Raises AbortedByCrash carrying
    the partial per-core stats if a probe kills the platform.
    """
    profile = state.profile
    geom = _geometry(bundled_program("vp1_xor_kernel"), None, None, None, 100_000)
    events = len(geom.store_slices)

    stats: list[FaultStats] = []
    for core in range(profile.physical_cores):
        env = _pinned_state(
            profile,
            plan.pstate,
            core,
            state.stressor_name,
            state.seed,
            plan.offset_for(core),
        )
        gen = rngmod.stream(state.seed, "phase2", plan.pstate, core)
        temp = float(env.core_temp_c[core])
        rates = loop_rates(
            profile, core, env.pstate, env.nominal_voltage_mv(), temp, events,
            env.stressor_fault_multiplier,
        )
        c_try = _any_of(rates.g_slice, geom.slices_per_iteration)

        completed = _tries_before_crash(gen, c_try, tries_per_core)
        faults = int(gen.binomial(completed, rates.q_iter)) if rates.q_iter > 0.0 else 0
        byte_hist = [0] * 16
        mult_hist: dict[int, int] = {}
        for mask in draw_flip_masks(profile, core, faults, gen):
            for b in range(16):
                if mask >> (8 * b) & 0xFF:
                    byte_hist[b] += 1
            bits = mask.bit_count()
            mult_hist[bits] = mult_hist.get(bits, 0) + 1
        stats.append(
            FaultStats(core, completed, faults, tuple(byte_hist), mult_hist)
        )
        if completed < tries_per_core:
            raise AbortedByCrash(
                f"probe crashed the platform on core {core}",
                partial=ProbeReport(tuple(stats), _best_core(stats)),
            )
    return ProbeReport(tuple(stats), _best_core(stats))


def _best_core(stats) -> int:
    best = max(stats, key=lambda s: (s.fault_rate, -s.core))
    return best.core


# ---------------------------------------------------------------------------
# Phase 3: the campaign


def phase3_attack(
    state: PlatformState,
    plan: VoltagePlan,
    victim: str,
    target_core: int,
    stressor: str,
    runs: int = 5,
    tries_per_run: int = 10_000,
) -> CampaignResult:
    """Run the campaign at the planned offset for the chosen core.

    The undervolt is applied only around the victim's fault-prone window,
    `GUARD_SLICES` before and after, so the crash exposure per try is the
    window duration plus twice the guard.  Results aggregate across runs
    with independent keyed RNG streams; order of execution cannot matter.
    """
    profile = state.profile
    target_core = profile.check_core(target_core)
    offset = plan.offset_for(target_core)
    env = _pinned_state(
        profile, plan.pstate, target_core, stressor, state.seed, offset
    )

    if victim == "poc":
        program = bundled_program("poc_and_branch")
        hits = scan(program)
        if len(hits) != 1:
            raise InvariantError("the guarded-branch victim carries one pattern hit")
        est = estimate_window(
            program, hits[0], 1, memory=POC_MEMORY, scalar=POC_SCALARS
        )
        exposure = est.duration_slices + 2 * GUARD_SLICES

        def one(run_index: int) -> tuple[int, int, bool]:
            gen = rngmod.stream(state.seed, "phase3", "poc", target_core, run_index)
            try:
                got = run_poc_enclave(
                    env, target_core, tries_per_run, gen, exposure_slices=exposure
                )
                return got, tries_per_run, False
            except AbortedByCrash as abort:
                successes, completed = abort.partial
                return successes, completed, True

        return _campaign_runs(one, runs, target_core, "poc")

    payload = payload_name(victim)
    return run_hmac_victim(env, target_core, payload, tries_per_run, runs=runs)


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
    plan = phase1_find_window(profile, "vp1_xor_kernel", pstate, seed=seed)
    result = phase3_attack(state, plan, victim, target_core, stressor, runs, tries_per_run)
    offset = plan.offset_for(target_core)
    base = profile.pstate_point(pstate).base_voltage_mv
    context = {
        "model": profile.name,
        "pstate": pstate,
        "stressor": stressor_profile(stressor).name,
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
