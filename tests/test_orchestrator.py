"""Three-phase workflow: setup plans, window search, probing, campaigns."""

import json
from collections import Counter
from importlib import resources

import pytest

import voltlab.isa as isa
import voltlab.orchestrator as orchestrator
import voltlab.processor as processor
import voltlab.rng as rngmod
import voltlab.scanner as scanner
import voltlab.victims as victims
from voltlab.errors import (
    AbortedByCrash,
    InvariantError,
    NoWindowFound,
    UnknownCoreOrPState,
)
from voltlab.orchestrator import (
    FaultStats,
    ProbeReport,
    SystemConfig,
    VoltagePlan,
    phase1_find_window,
    phase2_probe_cores,
    phase3_attack,
    run_campaign,
    setup_system,
)
from voltlab.processor import (
    ProcessorProfile,
    bundled_profile_names,
    load_profile,
    victim_temp_target_c,
)
from voltlab.scanner import scan
from voltlab.victims import STRESSORS

from helpers import fresh_cache, reference_phase1, run_campaigns_out_of_order, stability_victim

KABY = load_profile("i7-7700k")
COFFEE = load_profile("i7-8700k")


def _kaby_raw() -> dict:
    text = (
        resources.files("voltlab")
        .joinpath("data/profiles/i7-7700k.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _width_zero_profile() -> ProcessorProfile:
    raw = _kaby_raw()
    for entry in raw["pstates"].values():
        entry["exploit_window_mv"] = 0.0
    return ProcessorProfile(raw, origin="width-zero")


def _kaby_with(origin: str, **fields) -> ProcessorProfile:
    raw = _kaby_raw()
    raw.update(fields)
    return ProcessorProfile(raw, origin=origin)


def _kaby_shifted(origin: str, shift_mv: int) -> ProcessorProfile:
    """Every pstate's nominal voltage `shift_mv` higher, its window where
    it was: phase 1 starts `shift_mv` farther above each window top."""
    raw = _kaby_raw()
    for entry in raw["pstates"].values():
        entry["base_voltage_v"] = round(entry["base_voltage_v"] + shift_mv / 1000.0, 3)
    return ProcessorProfile(raw, origin=origin)


def _crash_free_profile() -> ProcessorProfile:
    """Faults as bundled, but no level of any pstate can crash."""
    raw = _kaby_raw()
    raw["crash"]["rate_per_slice"] = 0.0
    return ProcessorProfile(raw, origin="crash-free")


def _quiet_profile() -> ProcessorProfile:
    """No level of any pstate can fault or crash."""
    raw = _kaby_raw()
    for entry in raw["pstates"].values():
        entry["exploit_window_mv"] = 0.0
    raw["crash"]["rate_per_slice"] = 0.0
    return ProcessorProfile(raw, origin="quiet")


# ---------------------------------------------------------------------------
# System setup


def test_setup_partitions_the_machine():
    state, config, _ = setup_system(KABY, "0x1b", 1, "listing2")
    assert config.attack_group == (0, 4)
    assert config.victim_group == (1, 2, 3, 5, 6, 7)
    assert not set(config.attack_group) & set(config.victim_group)
    everything = set(config.attack_group) | set(config.victim_group)
    assert everything == set(range(KABY.logical_cores()))
    assert state.core == 1


def test_setup_moves_the_attacker_off_the_target():
    _, config, _ = setup_system(KABY, "0x1b", 0, "none")
    assert config.attack_group == (1, 5)
    assert 0 in config.victim_group


def test_setup_msr_plan():
    _, _, writes = setup_system(KABY, "0x1B", 1, "listing2")
    assert [(w.address, w.value) for w in writes] == [
        (0x1AA, 0x1),  # claim EIST software control
        (0x199, 0x1B << 8),  # pin the ratio
        (0x1A0, 1 << 38),  # turbo off
        (0x19B, 0),  # thermal interrupts masked
        (0x150, 0x8000_0011_0000_0000),  # offset parked at zero
    ]


def test_setup_interference_bookkeeping():
    _, config, _ = setup_system(KABY, "0x1b", 1, "none")
    assert config.drivers_disabled == ("acpi_cpufreq", "intel_pstate")
    assert config.pstate_pin == "0x1b"


def test_setup_prewarms_temperatures():
    state, _, _ = setup_system(KABY, "0x1b", 1, "listing2", seed=9)
    assert state.stressor is STRESSORS["shift_loop"]
    assert state.temp_c == victim_temp_target_c(KABY, "0x1b", STRESSORS["shift_loop"].temp_boost_c)
    assert state.temp_c > KABY.ambient_temp_c


def test_setup_rejects_unknown_core():
    with pytest.raises(UnknownCoreOrPState):
        setup_system(KABY, "0x1b", 9, "none")


def test_config_rejects_overlapping_groups():
    with pytest.raises(InvariantError):
        SystemConfig((0, 4), (0, 1), (), "0x1b")


# ---------------------------------------------------------------------------
# Phase 1


def test_phase1_recovers_the_window_tops_exactly():
    plan = phase1_find_window(KABY, pstate="0x1b", seed=3)
    assert plan.window_top_v == (0.700, 0.710, 0.705, 0.705)
    assert plan.chosen_offset_mv == (-260, -250, -255, -255)


def test_phase1_costs_one_reboot_per_core():
    plan = phase1_find_window(KABY, pstate="0x1b", seed=3)
    assert plan.crashes_during_search == KABY.physical_cores


def test_phase1_matches_the_profile_on_every_pstate():
    for pstate, point in KABY.pstates.items():
        plan = phase1_find_window(KABY, pstate=pstate, seed=3)
        expect = tuple(mv / 1000.0 for mv in point.fault_voltage_mv)
        assert plan.window_top_v == pytest.approx(expect, abs=1e-9), pstate
        width = point.exploit_window_mv
        for core, off in enumerate(plan.chosen_offset_mv):
            assert off % 5 == 0
            v_att = point.base_voltage_mv + off
            top = point.fault_voltage_mv[core]
            # The attack point sits inside the window, above instability.
            assert top - width < v_att <= top, (pstate, core)


def test_phase1_on_the_six_core_part():
    plan = phase1_find_window(COFFEE, seed=3)
    point = COFFEE.pstate_point(COFFEE.default_attack_pstate)
    expect = tuple(mv / 1000.0 for mv in point.fault_voltage_mv)
    assert plan.window_top_v == pytest.approx(expect, abs=1e-9)
    assert len(plan.chosen_offset_mv) == 6


def test_phase1_is_seed_stable():
    a = phase1_find_window(KABY, pstate="0x1b", seed=3)
    b = phase1_find_window(KABY, pstate="0x1b", seed=3)
    c = phase1_find_window(KABY, pstate="0x1b", seed=20)
    assert a == b
    # The recovered levels are properties of the silicon, not the seed.
    assert a.window_top_v == c.window_top_v
    assert a.chosen_offset_mv == c.chosen_offset_mv


def test_phase1_reports_no_window_when_there_is_none():
    with pytest.raises(NoWindowFound):
        phase1_find_window(_width_zero_profile(), pstate="0x1b", seed=3)


def _plan_or_error(search, profile, **kwargs):
    try:
        return search(profile, **kwargs)
    except NoWindowFound as exc:
        return f"NoWindowFound: {exc}"


def _assert_same_as_every_level_walk(profile, seeds):
    for pstate in profile.pstates:
        for seed in seeds:
            got = _plan_or_error(phase1_find_window, profile, pstate=pstate, seed=seed)
            want = _plan_or_error(reference_phase1, profile, pstate=pstate, seed=seed)
            assert got == want, (profile.name, pstate, seed)


@pytest.mark.parametrize("name", bundled_profile_names())
def test_phase1_equals_the_every_level_walk_on_bundled_profiles(name):
    _assert_same_as_every_level_walk(load_profile(name), seeds=(0, 7, 13))


@pytest.mark.parametrize(
    "profile",
    [
        _kaby_shifted("start+50", 50),
        _kaby_shifted("start-200", -200),
        _kaby_with("noiseless", noise_mv=0.0),
        # The victim core runs at ambient, 60-78 C above each pstate's
        # reference: its window top sits 12-16 mV above the profile's.
        _kaby_with("hot", ambient_temp_c=110.0),
        _width_zero_profile(),
        _crash_free_profile(),
    ],
    ids=["start+50", "start-200", "noiseless", "hot", "width-zero", "crash-free"],
)
def test_phase1_equals_the_every_level_walk_off_the_bundled_cells(profile):
    _assert_same_as_every_level_walk(profile, seeds=(3,))


def test_phase1_plans_the_deepest_encodable_level_when_nothing_crashes():
    # Stage two finds no instability boundary down to the mailbox's limit,
    # so the attack offset is the lowest 5 mV level the mailbox encodes.
    for pstate in KABY.pstates:
        plan = phase1_find_window(_crash_free_profile(), pstate=pstate, seed=3)
        assert plan.chosen_offset_mv == (-1020,) * KABY.physical_cores, pstate
        assert plan.crashes_during_search == 0


def test_phase1_checks_at_most_one_level_per_stage_that_cannot_draw(monkeypatch):
    quiet = Counter()
    loop_rates = orchestrator.loop_rates
    mean_crash_probability = orchestrator.mean_crash_probability

    def stage_one(profile, core, pstate, v_nom, temp, events, *rest):
        rates = loop_rates(profile, core, pstate, v_nom, temp, events, *rest)
        quiet[pstate, core, 1] += rates.quiet
        return rates

    def stage_two(profile, core, pstate, v_nom, temp):
        g_slice = mean_crash_probability(profile, core, pstate, v_nom, temp)
        quiet[pstate, core, 2] += g_slice <= 0.0
        return g_slice

    monkeypatch.setattr(orchestrator, "loop_rates", stage_one)
    monkeypatch.setattr(orchestrator, "mean_crash_probability", stage_two)
    for pstate in KABY.pstates:
        phase1_find_window(_kaby_shifted("start+100", 100), pstate=pstate, seed=3)
    assert {stage for _, _, stage in quiet} == {1, 2}, quiet
    assert max(quiet.values()) <= 1, quiet


@pytest.mark.parametrize(
    "profile, quiet",
    [*((load_profile(name), False) for name in bundled_profile_names()), (_quiet_profile(), True)],
    ids=[*bundled_profile_names(), "quiet"],
)
def test_phase1_opens_one_stream_per_running_level(monkeypatch, profile, quiet):
    # Each running level opens its own `rng.stream`, and a stepped-over
    # level opens none.  A stage-one level runs `run_test_loop`; a
    # stage-two level runs when its crash chance is positive.
    counts = Counter()
    stream, run_test_loop = rngmod.stream, orchestrator.run_test_loop
    mean_crash_probability = orchestrator.mean_crash_probability

    def opening(*args):
        counts["streams"] += 1
        return stream(*args)

    def running(*args):
        counts["levels"] += 1
        return run_test_loop(*args)

    def stage_two(*args):
        g_slice = mean_crash_probability(*args)
        counts["levels"] += g_slice > 0.0
        counts["stage two"] += g_slice > 0.0
        return g_slice

    monkeypatch.setattr(rngmod, "stream", opening)
    monkeypatch.setattr(orchestrator, "run_test_loop", running)
    monkeypatch.setattr(orchestrator, "mean_crash_probability", stage_two)
    for pstate in profile.pstates:
        counts.clear()
        _plan_or_error(phase1_find_window, profile, pstate=pstate, seed=7)
        assert counts["streams"] == counts["levels"], (profile.name, pstate, counts)
        # Bundled cells run several levels in each stage; the quiet profile
        # runs none.
        if quiet:
            assert counts["levels"] == 0, (pstate, counts)
        else:
            assert counts["levels"] > counts["stage two"] > 0, (pstate, counts)


def test_stability_slices_are_100_laps_of_a_store_free_loop():
    # Stage two's closed form stands for 100 laps of the scratch loop: no
    # eligible store, so nothing to mismatch, and only the crash chance
    # is read.
    loop = stability_victim()
    assert scan(loop.program) == []
    assert loop.events == 0 and loop.store_insns == frozenset()
    assert orchestrator.STABILITY_SLICES == 100 * loop.slices_per_iteration


@pytest.mark.parametrize("first_crash", [1, 1_500, 1_501])
def test_phase1_stage_two_crashes_within_its_last_slice_like_the_scratch_loop(
    monkeypatch, first_crash
):
    # Every stage-two level draws its first crash at slice `first_crash`
    # (1-based): a crash on the budget's last slice still counts, one
    # slice later is none.  The every-level walk runs the scratch loop.
    class Pinned:
        def geometric(self, p):
            return first_crash

    stream = rngmod.stream

    def opening(seed, *path):
        return Pinned() if path[0] == "phase1-stability" else stream(seed, *path)

    monkeypatch.setattr(rngmod, "stream", opening)
    plan = phase1_find_window(KABY, pstate="0x1b", seed=3)
    assert plan == reference_phase1(KABY, pstate="0x1b", seed=3)
    crashed = first_crash <= orchestrator.STABILITY_SLICES
    assert (plan.chosen_offset_mv == (-1020,) * KABY.physical_cores) != crashed, plan


def _count_victim_builds(monkeypatch) -> Counter:
    """Count victim preparations per program, by the one `scan` each makes,
    starting from an empty victim cache, so a victim prepared by an earlier
    test still counts once."""
    fresh_cache(monkeypatch, victims, "_bundled_victim")
    built = Counter()
    scan = scanner.scan

    def counting(program):
        built[program.source_name] += 1
        return scan(program)

    monkeypatch.setattr(scanner, "scan", counting)
    return built


def test_phase1_computes_the_temperature_once_per_search(monkeypatch):
    # Phase 1 pins no stressor, so the temperature depends on neither the
    # core nor the offset; every core and level reads the one value.
    temps = []

    def counting(*args):
        temps.append(victim_temp_target_c(*args))
        return temps[-1]

    monkeypatch.setattr(victims, "victim_temp_target_c", counting)
    for profile in (KABY, COFFEE):
        for pstate in profile.pstates:
            temps.clear()
            phase1_find_window(profile, pstate=pstate, seed=7)
            assert temps == [victim_temp_target_c(profile, pstate, 0.0)], (profile.name, pstate)


def test_phase1_keeps_no_marginal_between_calls(monkeypatch):
    # Each marginal is computed afresh from the profile: a second identical
    # search calls each marginal, builds the fault curve and evaluates the
    # pointwise models (the ramp, the crash chance) as often as the first.
    counts = Counter()
    for module, name in (
        (victims, "mean_event_fault_probability"), (victims, "mean_crash_probability"),
        (orchestrator, "mean_crash_probability"),
        (processor, "_event_curve"), (processor, "manifestation"),
        (processor, "crash_probability_per_slice"),
    ):
        def counting(*args, real=getattr(module, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    for pstate in KABY.pstates:
        plans, seen = [], []
        for _ in range(2):
            counts.clear()
            plans.append(phase1_find_window(KABY, pstate=pstate, seed=7))
            seen.append(dict(counts))
        assert plans[0] == plans[1]
        assert seen[0] == seen[1] and len(seen[0]) == 5, (pstate, seen)


def test_phase1_prepares_each_program_once_and_rates_each_level_once(monkeypatch):
    built = _count_victim_builds(monkeypatch)
    levels, returned, handed = [], [], []
    crash_marginals = Counter()
    loop_rates, run_test_loop = orchestrator.loop_rates, orchestrator.run_test_loop
    mean_crash_probability = victims.mean_crash_probability

    def rating(profile, core, pstate, v_nom, temp, events, *rest):
        levels.append((1, core, v_nom))
        returned.append(loop_rates(profile, core, pstate, v_nom, temp, events, *rest))
        return returned[-1]

    def running(rates, *rest):
        handed.append(rates)
        return run_test_loop(rates, *rest)

    def stage_two_rating(profile, core, pstate, v_nom, temp):
        levels.append((2, core, v_nom))
        return mean_crash_probability(profile, core, pstate, v_nom, temp)

    def crash_marginal(*args):
        crash_marginals["calls"] += 1
        return mean_crash_probability(*args)

    monkeypatch.setattr(orchestrator, "loop_rates", rating)
    monkeypatch.setattr(orchestrator, "run_test_loop", running)
    monkeypatch.setattr(orchestrator, "mean_crash_probability", stage_two_rating)
    monkeypatch.setattr(victims, "mean_crash_probability", crash_marginal)
    for pstate in KABY.pstates:
        levels.clear()
        crash_marginals.clear()
        plan = phase1_find_window(KABY, pstate=pstate, seed=7)
        # Neither stage prepares a program: stage one reads its store count
        # from `LOOP_EVENTS`, stage two its slices from `STABILITY_SLICES`.
        assert built == {}, pstate
        # A stage-one crash retries its level; nothing else rates a level twice.
        stage2_crashes = sum(off != orchestrator._DEEPEST_MV for off in plan.chosen_offset_mv)
        retries = plan.crashes_during_search - stage2_crashes
        assert len(levels) - len(set(levels)) == retries, pstate
        assert {stage for stage, _, _ in levels} == {1, 2}, pstate
        # `loop_rates` reads the crash marginal once per stage-one level.
        assert crash_marginals["calls"] == sum(stage == 1 for stage, _, _ in levels), pstate
    # Every level that runs is handed the rates its quiet check computed.
    assert handed and all(any(h is r for r in returned) for h in handed)


def test_voltage_plan_validation():
    with pytest.raises(InvariantError):
        VoltagePlan("0x1b", (0.7,), (-257,))  # off the 5 mV grid
    with pytest.raises(InvariantError):
        VoltagePlan("0x1b", (0.7,), (-1030,))  # below the encodable floor
    with pytest.raises(InvariantError):
        VoltagePlan("0x1b", (0.7, 0.71), (-250,))  # core counts disagree
    plan = VoltagePlan("0x1b", (0.7, 0.71), (-260, -250), crashes_during_search=2)
    assert plan.offset_for(1) == -250
    blob = plan.to_json()
    assert blob["chosen_offset_mv"] == [-260, -250]
    assert blob["crashes_during_search"] == 2


# ---------------------------------------------------------------------------
# Phase 2


def _kaby_probe(seed=5, tries=10_000):
    state, _, _ = setup_system(KABY, "0x1b", 0, "listing2", seed=seed)
    plan = phase1_find_window(KABY, pstate="0x1b", seed=seed)
    return phase2_probe_cores(state, plan, tries_per_core=tries)


def test_phase2_ranks_the_leaky_core_first():
    report = _kaby_probe()
    assert report.best_core == 1
    rates = [s.fault_rate for s in report.stats]
    # Probe marginals at the attack points, stressor running.
    assert rates == pytest.approx([0.198, 0.4455, 0.3465, 0.2723], abs=0.05)
    assert all(s.tries == 10_000 for s in report.stats)


def test_phase2_on_the_six_core_part():
    state, _, _ = setup_system(COFFEE, COFFEE.default_attack_pstate, 1, "listing2", seed=5)
    plan = phase1_find_window(COFFEE, seed=5)
    report = phase2_probe_cores(state, plan, tries_per_core=4000)
    assert report.best_core == 0
    assert len(report.stats) == 6


def test_phase2_byte_lanes_respect_the_affinity_tables():
    report = _kaby_probe(seed=7, tries=6000)
    for stat in report.stats:
        allowed = {i for i, w in enumerate(KABY.byte_affinity[stat.core]) if w > 0}
        seen = {i for i, n in enumerate(stat.byte_histogram) if n}
        assert seen <= allowed, stat.core
        assert sum(stat.multiplicity_histogram.values()) == stat.faults


def test_phase2_crash_aborts_with_partial_stats():
    state, _, _ = setup_system(KABY, "0x1b", 0, "listing2", seed=5)
    doomed = VoltagePlan("0x1b", (0.7, 0.71, 0.705, 0.705), (-500, -500, -500, -500))
    with pytest.raises(AbortedByCrash) as info:
        phase2_probe_cores(state, doomed, tries_per_core=10_000)
    partial = info.value.partial
    assert isinstance(partial, ProbeReport)
    assert partial.stats[-1].tries < 10_000


def test_phase2_refuses_a_negative_try_count():
    state, _, _ = setup_system(KABY, "0x1b", 1, "listing2", seed=5)
    idle = VoltagePlan("0x1b", (0.7, 0.71, 0.705, 0.705), (0, 0, 0, 0))
    with pytest.raises(InvariantError, match="tries is nonnegative"):
        phase2_probe_cores(state, idle, tries_per_core=-3)


def test_phase2_prepares_the_probe_victim_once(monkeypatch):
    state, plan = _kaby_attack_setup()
    built = _count_victim_builds(monkeypatch)
    phase2_probe_cores(state, plan, tries_per_core=500)
    phase2_probe_cores(state, plan, tries_per_core=500)
    assert built == {"vp1_xor_kernel": 1}


def test_fault_stats_bucketing():
    stats = FaultStats(2, 1000, 10, (0,) * 16, {1: 5, 2: 3, 4: 2})
    assert stats.bucketed() == (5, 3, 2)
    assert stats.fault_rate == pytest.approx(0.01)
    assert FaultStats(0, 0, 0, (0,) * 16, {}).fault_rate == 0.0
    assert stats.to_json()["multiplicity_histogram"] == {"1": 5, "2": 3, "4": 2}


# ---------------------------------------------------------------------------
# Phase 3


def _kaby_attack_setup(seed=5, stressor="listing2"):
    state, _, _ = setup_system(KABY, "0x1b", 1, stressor, seed=seed)
    plan = phase1_find_window(KABY, pstate="0x1b", seed=seed)
    return state, plan


def test_phase3_poc_lands_nearly_every_try():
    state, plan = _kaby_attack_setup()
    result = phase3_attack(state, plan, "poc", runs=2, tries_per_run=2000)
    assert result.scenario == "poc"
    assert result.mean_per_10k == pytest.approx(9900, abs=120)
    assert result.crashes == 0


def _phase3_outcome(*args, **kwargs):
    try:
        return phase3_attack(*args, **kwargs)
    except AbortedByCrash as abort:
        return abort.partial


def test_phase3_does_not_depend_on_run_order(monkeypatch):
    state, plan = _kaby_attack_setup(seed=8)
    # The phase-3 cell of tests/golden/crash_aborts.json: core 1 at
    # -255 mV crashes partway through, so its partial result is compared.
    edge_state, _, _ = setup_system(KABY, "0x1b", 1, "listing2", seed=5)
    edge_plan = VoltagePlan("0x1b", (0.7, 0.71, 0.705, 0.705), (-260, -255, -255, -255))
    cells = [
        (state, plan, "hmac32", 3, 400),
        (state, plan, "hmac1k", 3, 100),
        (state, plan, "poc", 3, 400),
        (edge_state, edge_plan, "poc", 3, 500),
    ]
    serial = [_phase3_outcome(*cell) for cell in cells]
    assert [r.scenario for r in serial] == ["hmac_32b", "hmac_1kb", "poc", "poc"]
    assert serial[-1].crashes == 1
    run_campaigns_out_of_order(monkeypatch, seed=8)
    assert [_phase3_outcome(*cell) for cell in cells] == serial


def test_phase3_poc_prepares_no_program_and_executes_no_run(monkeypatch):
    state, plan = _kaby_attack_setup()
    built = _count_victim_builds(monkeypatch)
    called = []
    for module, name in ((victims, "draw_flip_masks"), (isa, "interpret")):
        monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name))
    result = phase3_attack(state, plan, "poc", runs=4, tries_per_run=1500)
    assert phase3_attack(state, plan, "poc", runs=4, tries_per_run=1500) == result
    assert built == {}
    assert called == []
    assert result.successes > 0


def test_poc_campaign_reads_its_rates_once_like_hmac(monkeypatch):
    calls = []
    real = victims.mean_event_fault_probability

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(victims, "mean_event_fault_probability", counting)
    counts = {}
    for victim in ("poc", "hmac32"):
        calls.clear()
        run_campaign("i7-7700k", victim, 1, "listing2", seed=7, runs=5, tries_per_run=1000)
        counts[victim] = len(calls)
    assert counts["poc"] == counts["hmac32"], counts


def test_phase3_zero_offset_yields_nothing():
    state, _ = _kaby_attack_setup()
    idle = VoltagePlan("0x1b", (0.7, 0.71, 0.705, 0.705), (0, 0, 0, 0))
    poc = phase3_attack(state, idle, "poc", runs=2, tries_per_run=500)
    mac = phase3_attack(state, idle, "hmac32", runs=2, tries_per_run=300)
    assert poc.successes == 0 and poc.mean_per_10k == 0.0
    assert mac.successes == 0 and mac.mean_per_10k == 0.0


def test_phase3_rejects_a_plan_at_an_unknown_pstate():
    # The core comes from the state, which refuses one the profile lacks
    # (test_setup_rejects_unknown_core); the pstate comes from the plan.
    state, _ = _kaby_attack_setup()
    plan = VoltagePlan("0x1c", (0.7, 0.71, 0.705, 0.705), (-250, -250, -250, -250))
    with pytest.raises(UnknownCoreOrPState):
        phase3_attack(state, plan, "hmac32")


@pytest.mark.parametrize(
    "phase",
    [
        lambda state, plan: phase2_probe_cores(state, plan, tries_per_core=100),
        lambda state, plan: phase3_attack(state, plan, "hmac32", 1, 100),
    ],
    ids=["phase2", "phase3"],
)
def test_phases_refuse_a_plan_for_another_core_count(phase):
    # A one-core plan against the four-core i7-7700K, the victim on core 1.
    state, _ = _kaby_attack_setup()
    short = VoltagePlan("0x1b", (0.7,), (-250,))
    with pytest.raises(InvariantError, match="the plan covers 1 cores, the .* has 4"):
        phase(state, short)


def test_phase3_crash_aborts_with_partial_result():
    state, _ = _kaby_attack_setup()
    doomed = VoltagePlan("0x1b", (0.7, 0.71, 0.705, 0.705), (-500, -500, -500, -500))
    with pytest.raises(AbortedByCrash) as info:
        phase3_attack(state, doomed, "poc", runs=3, tries_per_run=1000)
    partial = info.value.partial
    assert partial.crashes == 1
    assert partial.tries < 3000


# ---------------------------------------------------------------------------
# The one-call wrapper


def test_run_campaign_reports_context():
    result, ctx = run_campaign(
        KABY, "hmac32", 1, "listing2", seed=11, runs=2, tries_per_run=300
    )
    assert result.scenario == "hmac_32b"
    assert result.tries == 600
    assert ctx["model"] == "i7-7700K"
    assert ctx["pstate"] == "0x1b"
    assert ctx["stressor"] == "shift_loop"
    assert ctx["offset_mv"] == -250
    assert ctx["attack_voltage_v"] == pytest.approx(0.700)
    assert ctx["plan"]["chosen_offset_mv"] == [-260, -250, -255, -255]
    addresses = [w["address"] for w in ctx["system"]["msr_writes"]]
    assert addresses == ["0x1aa", "0x199", "0x1a0", "0x19b", "0x150"]
