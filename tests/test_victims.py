"""Victim runners: stressor registry, test loop, branch PoC, HMAC campaigns."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltlab import processor
from voltlab import rng as vrng
from voltlab.errors import (
    AbortedByCrash,
    InterpreterError,
    InvalidCore,
    InvariantError,
    UnknownStressor,
)
from voltlab.mca import MachineCheck, SurfacedFault
from voltlab.orchestrator import setup_system
from voltlab.processor import (
    ROLE_IDLE,
    ROLE_STRESSOR,
    ROLE_VICTIM,
    CrashKind,
    PlatformState,
    load_profile,
    mean_event_fault_probability,
)
from voltlab.isa import parse_program
from voltlab.sha256sim import HmacContext
from voltlab.victims import (
    HMAC_KEY,
    STRESSORS,
    CampaignResult,
    RunOutcome,
    RunStatus,
    _DiversionOracle,
    _geometry,
    _hmac_single_run,
    _payload_bytes,
    _tries_before_crash,
    hmac_scenario,
    POC_MEMORY,
    POC_SCALARS,
    memory_diff,
    payload_name,
    run_hmac_victim,
    run_poc_enclave,
    run_test_loop,
    stressor_profile,
)

from helpers import (
    reference_hmac_detail,
    reference_memory_diff,
    run_campaigns_out_of_order,
)


@pytest.fixture(scope="module")
def kaby():
    return load_profile("i7-7700k")


@pytest.fixture(scope="module")
def coffee():
    return load_profile("i7-8700k")


def pinned_state(profile, core, offset_mv, stressor="none", seed=7, pstate="0x1b"):
    """Victim on logical `core`, its partner running the stressor, victim
    core pre-warmed to its equilibrium temperature."""
    spec = stressor_profile(stressor)
    roles = [ROLE_IDLE] * profile.logical_cores()
    roles[core] = ROLE_VICTIM
    roles[core + profile.physical_cores] = ROLE_STRESSOR
    point = profile.pstate_point(pstate)
    temps = np.full(profile.physical_cores, profile.ambient_temp_c)
    temps[core] = point.reference_temp_c + spec.temp_boost_c
    return PlatformState(
        profile=profile,
        pstate=pstate,
        offset_mv={0: offset_mv},
        core_temp_c=temps,
        assignment=tuple(roles),
        stressor_name=spec.name,
        stressor_fault_multiplier=spec.fault_multiplier,
        stressor_temp_boost_c=spec.temp_boost_c,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Stressors


def test_stressor_registry_dominance():
    shift = stressor_profile("shift_loop")
    fish = stressor_profile("twofish_avx")
    none = stressor_profile("none")
    assert shift.fault_multiplier > fish.fault_multiplier > none.fault_multiplier
    assert none.fault_multiplier == 1.0
    assert shift.temp_boost_c > fish.temp_boost_c > none.temp_boost_c == 0.0
    assert shift.program == "shift_stressor"


def test_stressor_aliases():
    assert stressor_profile("listing2_shift_loop") is STRESSORS["shift_loop"]
    assert stressor_profile("listing2") is STRESSORS["shift_loop"]
    assert stressor_profile("twofish") is STRESSORS["twofish_avx"]


def test_unknown_stressor():
    with pytest.raises(UnknownStressor):
        stressor_profile("prime95")


# ---------------------------------------------------------------------------
# Outcomes and diffs


def test_outcome_validation():
    with pytest.raises(InvariantError):
        RunOutcome(RunStatus.MISMATCH, 3)
    with pytest.raises(InvariantError):
        RunOutcome(RunStatus.CRASH, 3)
    out = RunOutcome.crashed(CrashKind.FREEZE, 12)
    assert out.crash is CrashKind.FREEZE and out.iterations_executed == 12


def test_memory_diff():
    before = bytearray(64)
    after = bytearray(64)
    assert memory_diff(before, after) == ()
    after[35] ^= 0x01  # word 2, byte 3 within the word
    (pat,) = memory_diff(before, after)
    assert pat.word_index == 2
    assert pat.flipped_bits == frozenset({24})
    with pytest.raises(InvariantError):
        memory_diff(b"\x00" * 16, b"\x00" * 32)



@st.composite
def _memory_pairs(draw):
    """A memory of 16-4096 bytes and a copy with 0-5 words corrupted."""
    before = draw(st.binary(min_size=16, max_size=4096))
    after = bytearray(before)
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.integers(0, len(after) - 1))
        after[at] ^= draw(st.integers(1, 255))
    return before, bytes(after)


@settings(max_examples=200, deadline=None)
@given(_memory_pairs(), st.integers(1, 64))
def test_memory_diff_matches_the_word_loop(pair, extra):
    before, after = pair
    assert memory_diff(before, after) == reference_memory_diff(before, after)
    assert memory_diff(bytearray(before), after) == memory_diff(before, after)
    with pytest.raises(InvariantError):
        memory_diff(before, after + bytes(extra))

# ---------------------------------------------------------------------------
# Test loop


def test_loop_matches_at_nominal_voltage(kaby):
    env = pinned_state(kaby, 1, 0)
    out = run_test_loop("vp1_xor_kernel", env, 500, vrng.stream(1, "a"))
    assert out.status is RunStatus.MATCH
    assert out.iterations_executed == 500


def test_loop_mismatches_inside_the_window(kaby):
    # 710 mV on core 1 sits right at its window top.
    env = pinned_state(kaby, 1, -240)
    out = run_test_loop("vp1_xor_kernel", env, 20_000, vrng.stream(2, "b"))
    assert out.status is RunStatus.MISMATCH
    assert 1 <= out.iterations_executed <= 20_000
    assert out.diff
    support = {i for i, w in enumerate(kaby.byte_affinity[1]) if w > 0}
    for pat in out.diff:
        assert pat.word_index == 2  # the kernel publishes to 0x20
        assert pat.byte_positions <= support


def test_loop_crashes_below_the_floor(kaby):
    env = pinned_state(kaby, 1, -260)  # 690 mV < 695 floor
    out = run_test_loop("vp1_xor_kernel", env, 20_000, vrng.stream(3, "c"))
    assert out.status is RunStatus.CRASH
    assert out.crash in set(CrashKind)
    assert out.iterations_executed < 20_000


def test_loop_deterministic(kaby):
    env = pinned_state(kaby, 1, -240)
    a = run_test_loop("vp1_xor_kernel", env, 5000, vrng.stream(9, "d"))
    b = run_test_loop("vp1_xor_kernel", env, 5000, vrng.stream(9, "d"))
    assert a == b


def test_loop_surfaced_exception(kaby):
    # No eligible stores, so only the decode-surfacing process can fire.
    program = parse_program("push %r10\npop %r10\nhalt\n", "plain")
    env = pinned_state(kaby, 1, -250)
    mc = MachineCheck.for_profile(kaby, surface_probability=1.0)
    out = run_test_loop(program, env, 5000, vrng.stream(4, "e"), machine_check=mc)
    assert out.status is RunStatus.PROCESSOR_EXCEPTION
    assert out.exception in (SurfacedFault.INVALID_OPCODE, SurfacedFault.GENERAL_PROTECTION)


def test_loop_rejects_non_halting_programs(kaby):
    env = pinned_state(kaby, 1, 0)
    with pytest.raises(InterpreterError):
        run_test_loop("shift_stressor", env, 10, vrng.stream(5, "f"))


def test_loop_mean_iterations_tracks_fault_rate(kaby):
    # At full saturation with no stressor the xor kernel faults at the
    # probe ceiling, 1.8% per iteration on core 1.
    env = pinned_state(kaby, 1, -250)
    lengths = []
    for i in range(120):
        out = run_test_loop("vp1_xor_kernel", env, 10_000, vrng.stream(i, "g"))
        assert out.status is RunStatus.MISMATCH
        lengths.append(out.iterations_executed)
    mean = np.mean(lengths)
    # Geometric with p=0.018 has mean ~55.6 and sem ~5 over 120 samples.
    assert 40 < mean < 72


# ---------------------------------------------------------------------------
# Branch-diversion PoC


def test_poc_every_single_bit_diverts():
    from voltlab.isa import bundled_program

    program = bundled_program("poc_and_branch")
    geom = _geometry(program, POC_MEMORY, None, POC_SCALARS, 100_000)
    oracle = _DiversionOracle(program, geom, POC_MEMORY, POC_SCALARS)
    assert all(oracle.diverts(1 << b) for b in range(128))
    gen = vrng.stream(11, "masks")
    for _ in range(50):
        mask = int(gen.integers(1, 1 << 63)) | int(gen.integers(0, 1 << 63)) << 64
        assert oracle.diverts(mask)


def test_poc_success_rate_with_shift_stressor(kaby):
    env = pinned_state(kaby, 1, -250, stressor="shift_loop")
    successes = run_poc_enclave(env, 1, 2000, vrng.stream(21, "poc"))
    assert abs(successes - 1980) <= 20  # q = 0.99, 4.5 sigma


def test_poc_success_rate_with_twofish(kaby):
    env = pinned_state(kaby, 1, -250, stressor="twofish_avx")
    successes = run_poc_enclave(env, 1, 2000, vrng.stream(22, "poc"))
    assert abs(successes - 160) <= 50  # q = 0.08, ~4 sigma


def test_poc_zero_offset_never_succeeds(kaby):
    env = pinned_state(kaby, 1, 0, stressor="shift_loop")
    assert run_poc_enclave(env, 1, 5000, vrng.stream(23, "poc")) == 0


def test_poc_crash_aborts_with_partial(kaby):
    env = pinned_state(kaby, 1, -260)
    with pytest.raises(AbortedByCrash) as info:
        run_poc_enclave(env, 1, 100_000, vrng.stream(24, "poc"))
    successes, completed = info.value.partial
    assert successes == 0  # below the window nothing faults
    assert completed < 100_000


def test_poc_respects_the_pin(kaby):
    env = pinned_state(kaby, 2, -250)
    with pytest.raises(InvalidCore):
        run_poc_enclave(env, 1, 10, vrng.stream(25, "poc"))


# ---------------------------------------------------------------------------
# HMAC victim


def test_hmac_32b_campaign_hits_the_calibrated_mean(kaby):
    env = pinned_state(kaby, 1, -250, stressor="shift_loop")
    result = run_hmac_victim(env, 1, "hmac32", 2000, runs=5)
    assert result.scenario == "hmac_32b"
    assert result.tries == 10_000
    assert len(result.per_run) == 5
    assert result.successes <= result.tries
    # q = 0.17956 by calibration; sem over 5x2000 tries ~38 per 10k.
    assert abs(result.mean_per_10k - 1795.6) < 160
    assert result.sigma > 0


def test_hmac_zero_rate_core(coffee):
    # Core 3's window top is 775 mV off a 1005 mV base; saturated attack
    # voltage 765 mV.  Its 32-byte calibration is exactly zero.
    env = pinned_state(coffee, 3, -240)
    result = run_hmac_victim(env, 3, "hmac32", 500, runs=5)
    assert result.successes == 0
    assert result.mean_per_10k == 0.0


def test_hmac_zero_offset(kaby):
    env = pinned_state(kaby, 1, 0, stressor="shift_loop")
    result = run_hmac_victim(env, 1, 32, 300, runs=3)
    assert result.successes == 0


def _hmac_outcome(call):
    try:
        return call()
    except AbortedByCrash as abort:
        return abort.partial


def test_hmac_does_not_depend_on_run_order(kaby, monkeypatch):
    # The -252 mV cell of tests/golden/crash_aborts.json dies partway
    # through a run, so its partial result must not move either.
    warm = pinned_state(kaby, 1, -250, stressor="shift_loop")
    state, _, _ = setup_system(kaby, "0x1b", 1, "listing2", seed=5)
    edge = dataclasses.replace(state, offset_mv={0: -252})
    calls = [
        lambda: run_hmac_victim(warm, 1, "hmac32", 400, runs=4),
        lambda: run_hmac_victim(warm, 1, "hmac1k", 100, runs=3),
        lambda: run_hmac_victim(edge, 1, "hmac32", 200, runs=3),
    ]
    serial = [_hmac_outcome(call) for call in calls]
    assert serial[2].crashes == 1
    assert serial == [_hmac_outcome(call) for call in calls]
    run_campaigns_out_of_order(monkeypatch, seed=3)
    assert [_hmac_outcome(call) for call in calls] == serial


def test_hmac_crash_aborts_with_partial_result(kaby):
    env = pinned_state(kaby, 1, -260, stressor="shift_loop")
    with pytest.raises(AbortedByCrash) as info:
        run_hmac_victim(env, 1, "hmac32", 5000, runs=5)
    partial = info.value.partial
    assert isinstance(partial, CampaignResult)
    assert partial.crashes == 1
    assert partial.tries < 25_000


_HMAC_CONTEXTS = {
    payload: HmacContext(HMAC_KEY, _payload_bytes(payload)) for payload in ("hmac32", "hmac1k")
}


def _campaign_p_event(profile, payload, core):
    env = pinned_state(profile, core, -250, stressor="shift_loop")
    return mean_event_fault_probability(
        profile, core, env.pstate, hmac_scenario(payload), env.stressor_fault_multiplier,
        env.nominal_voltage_mv(), float(env.core_temp_c[core]),
    )


def _hmac_run_matches_oracle(profile, payload, core, p_event, seed, tries, half=False, c_try=0.0):
    """One `_hmac_single_run` against `reference_hmac_detail`: equal fault
    sets and an equal final generator state.  `half` enters with a
    buffered half-word; a positive `c_try` cuts the run short."""
    ctx = _HMAC_CONTEXTS[payload]
    ours, theirs = vrng.stream(seed, "hmac-detail"), vrng.stream(seed, "hmac-detail")
    if half:
        for gen in (ours, theirs):
            gen.integers(0, 9, dtype=np.uint32)
        assert ours.bit_generator.state["has_uint32"] == 1
    with mock.patch.object(ctx, "macs_with_faults", return_value=[]) as macs:
        _hmac_single_run(ctx, profile, core, p_event, c_try, tries, ours)
    total = ctx.total_events
    ks = theirs.binomial(total, p_event, size=tries) if p_event > 0.0 else np.zeros(tries, int)
    completed = _tries_before_crash(theirs, c_try, tries)
    expected = reference_hmac_detail(ctx, profile, core, ks[:completed], theirs)
    assert macs.call_args.args[0] == expected
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    return expected


@pytest.mark.parametrize("payload", ["hmac32", "hmac1k"])
def test_hmac_detail_draws_replay_choice(kaby, payload):
    faulted = 0
    for core in range(kaby.physical_cores):
        campaign = _campaign_p_event(kaby, payload, core)
        for seed in range(3):
            for p_event, tries in ((campaign, 400), (0.05, 40)):
                for half in (False, True):
                    faulted += len(
                        _hmac_run_matches_oracle(kaby, payload, core, p_event, seed, tries, half)
                    )
    assert faulted > 0
    # A crash cuts the run after 190 of 200 tries: only those draw their detail.
    _hmac_run_matches_oracle(kaby, payload, 1, 0.05, 4, 200, c_try=0.02)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["hmac32", "hmac1k"]),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
)
def test_hmac_detail_draws_straddle_blocks(kaby, payload, core, dense, half, seed, block):
    # A block of a few words makes tries straddle top-ups mid-choice and mid-pattern.
    p_event = 0.05 if dense else _campaign_p_event(kaby, payload, core)
    with mock.patch.object(processor, "_BLOCK", block):
        _hmac_run_matches_oracle(kaby, payload, core, p_event, seed, 30, half)


def test_payload_names():
    assert payload_name("hmac_32b") == "hmac32"
    assert payload_name(1024) == "hmac1k"
    assert payload_name("hmac1k") == "hmac1k"
    with pytest.raises(InvariantError):
        payload_name("hmac2k")


def test_campaign_result_validation():
    with pytest.raises(InvariantError):
        CampaignResult(1, "poc", 10, 11, 0, ((11, 10),), 0.0, 0.0)
    with pytest.raises(InvariantError):
        CampaignResult(1, "poc", 10, 2, 0, ((1, 10),), 0.0, 0.0)
    ok = CampaignResult.from_runs(1, "poc", [(5, 10), (7, 10)])
    assert ok.mean_per_10k == pytest.approx(6000.0)
    assert ok.to_json()["per_run"] == [[5, 10], [7, 10]]
