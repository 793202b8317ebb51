"""Victim runners: stressor registry, test loop, branch PoC, HMAC campaigns."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltlab import cli, processor
from voltlab import rng as vrng
from voltlab import victims
from voltlab.errors import (
    AbortedByCrash,
    InterpreterError,
    InvariantError,
    UnknownCoreOrPState,
    UnknownStressor,
)
from voltlab.isa import interpret, parse_program
from voltlab.orchestrator import _stability_victim, phase1_find_window
from voltlab.processor import CrashKind, load_profile, mean_event_fault_probability
from voltlab.sha256sim import EVENTS_PER_BLOCK, HmacContext
from voltlab.victims import (
    HMAC_KEY,
    POC_MEMORY,
    POC_SCALARS,
    STRESSORS,
    CampaignResult,
    PlatformState,
    RunOutcome,
    RunStatus,
    _hits_before_crash,
    _payload_bytes,
    hmac_scenario,
    loop_victim,
    memory_diff,
    payload_name,
    pinned_rates,
    poc_victim,
    run_hmac_victim,
    run_poc_enclave,
    run_poc_victim,
    stressor_profile,
)

from helpers import (
    fresh_cache,
    goodness_of_fit_p,
    numpy_stream,
    reference_hmac_detail,
    reference_memory_diff,
    run_campaigns_out_of_order,
    run_loop_under,
    run_poc_under,
    two_sample_p,
)
from hmac_reference import (
    draw_fault_sets,
    hmac_fault_sets,
    macs_with_keys,
    store_events,
)


@pytest.fixture(scope="module")
def kaby():
    return load_profile("i7-7700k")


@pytest.fixture(scope="module")
def coffee():
    return load_profile("i7-8700k")


def pinned_state(profile, core, offset_mv, stressor="none", seed=7, pstate="0x1b"):
    """Victim pinned to physical `core` at `offset_mv`, its sibling
    hyperthread running the stressor."""
    return PlatformState(profile, pstate, core, offset_mv, stressor_profile(stressor), seed)


# ---------------------------------------------------------------------------
# Stressors


def test_stressor_registry_dominance():
    shift = stressor_profile("shift_loop")
    fish = stressor_profile("twofish_avx")
    none = stressor_profile("none")
    assert shift.fault_multiplier > fish.fault_multiplier > none.fault_multiplier
    assert none.fault_multiplier == 1.0
    assert shift.temp_boost_c > fish.temp_boost_c > none.temp_boost_c == 0.0


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
    """A memory of 0-4096 bytes and a copy with 0-5 bytes corrupted, the
    bytes past the last whole word included."""
    before = draw(st.binary(max_size=4096))
    after = bytearray(before)
    for _ in range(draw(st.integers(0, 5)) if before else 0):
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


def test_memory_diff_ignores_the_bytes_past_the_last_whole_word():
    for size in range(40):
        tail = size % 16
        for at in range(size - tail, size):
            after = bytearray(size)
            after[at] = 0x80
            assert memory_diff(bytes(size), after) == (), (size, at)


@pytest.mark.parametrize("size", [4096, 4100])
def test_memory_diff_finds_flips_on_both_sides_of_every_stretch_edge(size):
    # The search gallops up from address 0 past equal stretches of 64, 64,
    # 128, ... bytes; a flip on either side of any stretch edge, alone or
    # with a second one further up, is found once and in word order.
    edges = sorted({0, 15, 16, 63, 64, 127, 128, 255, 256, 1023, 1024, 2047, 2048, 4079, 4095})
    before = bytes(range(256)) * (size // 256) + bytes(size % 256)
    for first in edges:
        for second in [None, *(e for e in edges if e > first)]:
            after = bytearray(before)
            for at in (first, second):
                if at is not None:
                    after[at] ^= 0x11
            assert memory_diff(before, after) == reference_memory_diff(before, after)

# ---------------------------------------------------------------------------
# Test loop


def test_loop_matches_at_nominal_voltage(kaby):
    env = pinned_state(kaby, 1, 0)
    out = run_loop_under(env, "vp1_xor_kernel", 500, vrng.stream(1, "a"))
    assert out.status is RunStatus.MATCH
    assert out.iterations_executed == 500


def test_loop_mismatches_inside_the_window(kaby):
    # 710 mV on core 1 sits right at its window top.
    env = pinned_state(kaby, 1, -240)
    out = run_loop_under(env, "vp1_xor_kernel", 20_000, vrng.stream(2, "b"))
    assert out.status is RunStatus.MISMATCH
    assert 1 <= out.iterations_executed <= 20_000
    assert out.diff
    support = {i for i, w in enumerate(kaby.byte_affinity[1]) if w > 0}
    for pat in out.diff:
        assert pat.word_index == 2  # the kernel publishes to 0x20
        assert pat.byte_positions <= support


def test_loop_crashes_below_the_floor(kaby):
    env = pinned_state(kaby, 1, -260)  # 690 mV < 695 floor
    out = run_loop_under(env, "vp1_xor_kernel", 20_000, vrng.stream(3, "c"))
    assert out.status is RunStatus.CRASH
    assert out.crash in set(CrashKind)
    assert out.iterations_executed < 20_000


def test_loop_deterministic(kaby):
    env = pinned_state(kaby, 1, -240)
    a = run_loop_under(env, "vp1_xor_kernel", 5000, vrng.stream(9, "d"))
    b = run_loop_under(env, "vp1_xor_kernel", 5000, vrng.stream(9, "d"))
    assert a == b


def test_loop_rejects_non_halting_programs():
    with pytest.raises(InterpreterError):
        loop_victim("shift_stressor")


def test_loop_mean_iterations_tracks_fault_rate(kaby):
    # At full saturation with no stressor the xor kernel faults at the
    # probe ceiling, 1.8% per iteration on core 1.
    env = pinned_state(kaby, 1, -250)
    victim = loop_victim("vp1_xor_kernel")
    lengths = []
    for i in range(120):
        out = run_loop_under(env, victim, 10_000, vrng.stream(i, "g"))
        assert out.status is RunStatus.MISMATCH
        lengths.append(out.iterations_executed)
    mean = np.mean(lengths)
    # Geometric with p=0.018 has mean ~55.6 and sem ~5 over 120 samples.
    assert 40 < mean < 72


# ---------------------------------------------------------------------------
# Branch-diversion PoC


def test_poc_every_drawn_mask_diverts_by_real_execution():
    # `run_poc_enclave` counts every faulted try as a diversion.  Prove it
    # by running the program with each mask XORed into the guarded store:
    # every 1- and 2-bit mask, and every distinct mask the bundled flip
    # tables draw in 5 000 tries on each core.
    victim = poc_victim()
    program, eligible = victim.program, victim.store_insns
    masks = {1 << b for b in range(128)}
    masks |= {1 << a | 1 << b for a in range(128) for b in range(a)}
    for name in processor.bundled_profile_names():
        profile = load_profile(name)
        for core in range(profile.physical_cores):
            gen = vrng.stream(11, "poc-masks", name, core)
            masks |= set(processor.draw_flip_masks(profile, core, 5_000, gen))
    recovery = program.labels["_recovery"]
    assert len(masks) > 128 + 128 * 127 // 2
    for mask in masks:
        assert mask != 0

        def hook(store, mask=mask):
            return store.value ^ mask if store.insn_index in eligible else None

        run = interpret(program, POC_MEMORY, scalar=POC_SCALARS, store_hook=hook)
        assert run.halt_index == recovery, hex(mask)


def test_poc_victim_refuses_a_fault_free_run_that_diverts(monkeypatch):
    # With zeroed inputs the conjunction fails the all-ones check unfaulted,
    # so the closed form "every flip diverts" would not hold.  An empty
    # cache, so a victim prepared earlier cannot hide the patch; the warm
    # one comes back with the patch undone.
    fresh_cache(monkeypatch, victims, "poc_victim")
    monkeypatch.setattr(victims, "POC_MEMORY", bytes(4096))
    with pytest.raises(InvariantError, match="diverts"):
        victims.poc_victim()
    with pytest.raises(InvariantError, match="diverts"):
        victims.poc_victim()


def test_bundled_victims_are_prepared_once_and_immutable():
    xor, poc, stability = loop_victim("vp1_xor_kernel"), poc_victim(), _stability_victim()
    assert loop_victim("vp1_xor_kernel") is xor
    assert poc_victim() is poc
    assert _stability_victim() is stability
    for victim in (xor, poc, stability):
        assert type(victim.memory) is bytes
        assert type(victim.store_insns) is frozenset
    assert poc.memory == interpret(poc.program, POC_MEMORY, scalar=POC_SCALARS).memory
    # A program a caller passes in is prepared on every call.
    program = parse_program("vmovdqu %xmm1, 0x20\nhalt", "caller")
    assert loop_victim(program) is not loop_victim(program)
    assert loop_victim(program) == loop_victim(program)


def test_poc_success_rate_with_shift_stressor(kaby):
    env = pinned_state(kaby, 1, -250, stressor="shift_loop")
    successes = run_poc_under(env, 2000, vrng.stream(21, "poc"))
    assert abs(successes - 1980) <= 20  # q = 0.99, 4.5 sigma


def test_poc_success_rate_with_twofish(kaby):
    env = pinned_state(kaby, 1, -250, stressor="twofish_avx")
    successes = run_poc_under(env, 2000, vrng.stream(22, "poc"))
    assert abs(successes - 160) <= 50  # q = 0.08, ~4 sigma


def test_poc_zero_offset_never_succeeds(kaby):
    env = pinned_state(kaby, 1, 0, stressor="shift_loop")
    assert run_poc_under(env, 5000, vrng.stream(23, "poc")) == 0


def test_poc_crash_aborts_with_partial(kaby):
    env = pinned_state(kaby, 1, -260)
    with pytest.raises(AbortedByCrash) as info:
        run_poc_under(env, 100_000, vrng.stream(24, "poc"))
    successes, completed = info.value.partial
    assert successes == 0  # below the window nothing faults
    assert completed < 100_000


@pytest.mark.parametrize("tries", [1, 10_000, cli.MAX_TRIES])
@pytest.mark.parametrize("crash", [False, True])
def test_a_run_draws_the_same_whatever_its_tries(tries, crash):
    # One crash geometric, then one binomial of the tries completed: a run
    # leaves its stream where a fresh one is after those two draws, at any size.
    q, c_try = 0.2, 0.5 if crash else 1e-12
    gen, fresh = vrng.stream(1, "run-draws", tries), vrng.stream(1, "run-draws", tries)
    completed = min(fresh.geometric(c_try) - 1, tries)
    successes = fresh.binomial(completed, q)
    assert (completed < tries) == crash
    if crash:
        with pytest.raises(AbortedByCrash) as info:
            run_poc_enclave(q, c_try, tries, gen)
        assert info.value.partial == (successes, completed)
    else:
        assert run_poc_enclave(q, c_try, tries, gen) == successes
    assert gen.random(20) == fresh.random(20)


@pytest.mark.parametrize("pstate,core", [("0x1b", 4), ("0x1b", -1), ("0x1c", 1), ("0x100", 1)])
def test_state_refuses_an_unknown_core_or_pstate(kaby, pstate, core):
    with pytest.raises(UnknownCoreOrPState):
        PlatformState(kaby, pstate, core)


# ---------------------------------------------------------------------------
# HMAC victim


def test_hmac_32b_campaign_hits_the_calibrated_mean(kaby):
    env = pinned_state(kaby, 1, -250, stressor="shift_loop")
    result = run_hmac_victim(env, "hmac32", 2000, runs=5)
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
    result = run_hmac_victim(env, "hmac32", 500, runs=5)
    assert result.successes == 0
    assert result.mean_per_10k == 0.0


def test_hmac_zero_offset(kaby):
    env = pinned_state(kaby, 1, 0, stressor="shift_loop")
    result = run_hmac_victim(env, 32, 300, runs=3)
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
    edge = pinned_state(kaby, 1, -252, stressor="listing2", seed=5)
    calls = [
        lambda: run_hmac_victim(warm, "hmac32", 400, runs=4),
        lambda: run_hmac_victim(warm, "hmac1k", 100, runs=3),
        lambda: run_hmac_victim(edge, "hmac32", 200, runs=3),
    ]
    serial = [_hmac_outcome(call) for call in calls]
    assert serial[2].crashes == 1
    assert serial == [_hmac_outcome(call) for call in calls]
    run_campaigns_out_of_order(monkeypatch, seed=3)
    assert [_hmac_outcome(call) for call in calls] == serial


def test_hmac_crash_aborts_with_partial_result(kaby):
    env = pinned_state(kaby, 1, -260, stressor="shift_loop")
    with pytest.raises(AbortedByCrash) as info:
        run_hmac_victim(env, "hmac32", 5000, runs=5)
    partial = info.value.partial
    assert isinstance(partial, CampaignResult)
    assert partial.crashes == 1
    assert partial.tries < 25_000


def test_hmac_refuses_a_negative_try_count(kaby):
    env = pinned_state(kaby, 1, -250, stressor="shift_loop")
    with pytest.raises(InvariantError, match="tries is nonnegative"):
        run_hmac_victim(env, "hmac32", -3, runs=1)


@pytest.mark.parametrize(
    "campaign",
    [
        lambda env: run_hmac_victim(env, "hmac32", 100, runs=0),
        lambda env: run_hmac_victim(env, "hmac32", 100, runs=-1),
        lambda env: run_poc_victim(env, 100, runs=0),
    ],
    ids=["hmac-0", "hmac-minus-1", "poc-0"],
)
def test_campaigns_refuse_fewer_than_one_run(kaby, campaign):
    env = pinned_state(kaby, 1, -250, stressor="shift_loop")
    with pytest.raises(InvariantError, match="at least one run"):
        campaign(env)


def test_hmac_campaign_draws_no_fault_set(kaby, monkeypatch):
    # The warm cell of test_hmac_does_not_depend_on_run_order.  A try's
    # verdict is whether its fault set is nonempty, so no flip mask is
    # drawn and no faulted MAC computed.
    def forbidden(*args):
        raise AssertionError("an HMAC campaign drew a flip mask or recomputed a MAC")

    for target in (processor, victims):
        monkeypatch.setattr(target, "draw_flip_masks", forbidden)
    monkeypatch.setattr(HmacContext, "mac_with_faults", forbidden)
    warm = pinned_state(kaby, 1, -250, stressor="shift_loop")
    assert run_hmac_victim(warm, "hmac32", 400, runs=4).successes > 0
    idle = pinned_state(kaby, 1, 0, stressor="shift_loop")
    assert run_hmac_victim(idle, "hmac32", 400, runs=4).successes == 0


def _campaign_runs_of(env, payload, tries, n):
    """(successes, tries completed) of `n` one-run campaigns on the pinned
    core of `env`, seeded 0..n-1, a crashed run's partial included."""
    runs = []
    for seed in range(n):
        env = PlatformState(env.profile, env.pstate, env.core, env.offset_mv, env.stressor, seed)
        runs += _hmac_outcome(lambda: run_hmac_victim(env, payload, tries, runs=1)).per_run
    return runs


def _scalar_runs_of(env, payload, tries, n):
    """(successes, tries completed) of `n` runs of the scalar path on the
    pinned core of `env`: `hmac_fault_sets` draws each run try by try on its
    own stream, and a faulted try succeeds when its MAC, recomputed by the
    lane pass, differs from the clean one."""
    ctx = _HMAC_CONTEXTS[payload]
    events = ctx.total_events
    p_event, _, g = pinned_rates(env, events, hmac_scenario(payload))
    c_try = victims._any_of(g, events + 2 * victims.GUARD_SLICES)
    runs, keys = [], []
    for r in range(n):
        gen = numpy_stream(r, "scalar-path", payload)
        run_keys, completed, _ = hmac_fault_sets(
            ctx, env.profile, env.core, p_event, c_try, tries, gen
        )
        runs.append((len(keys), len(run_keys), completed))
        keys += run_keys
    valid = np.array(macs_with_keys(ctx, keys)) == ctx.clean_mac
    return [(k - int(valid[start : start + k].sum()), completed) for start, k, completed in runs]


def _assert_runs_agree(ours, scalar):
    """Per-run successes and tries completed follow one distribution."""
    for a, b in zip(zip(*ours), zip(*scalar)):
        bins = max(a + b) + 1
        assert two_sample_p(np.bincount(a, minlength=bins), np.bincount(b, minlength=bins)) > ALPHA


@pytest.mark.parametrize("payload", ["hmac32", "hmac1k"])
def test_hmac_campaign_equals_the_scalar_path(kaby, payload):
    warm = pinned_state(kaby, 1, -250, stressor="shift_loop")
    ours = _campaign_runs_of(warm, payload, 100, 200)
    scalar = _scalar_runs_of(warm, payload, 100, 200)
    assert {completed for _, completed in ours + scalar} == {100}
    _assert_runs_agree(ours, scalar)


def test_hmac_crashed_campaign_equals_the_scalar_path(kaby):
    # The -252 mV cell of tests/golden/crash_aborts.json.
    edge = pinned_state(kaby, 1, -252, stressor="listing2", seed=5)
    ours = _campaign_runs_of(edge, "hmac32", 100, 300)
    scalar = _scalar_runs_of(edge, "hmac32", 100, 300)
    assert sum(completed < 100 for _, completed in ours) > 150
    _assert_runs_agree(ours, scalar)


_HMAC_CONTEXTS = {
    payload: HmacContext(HMAC_KEY, _payload_bytes(payload)) for payload in ("hmac32", "hmac1k")
}


# -- the premise of the closed-form verdict: every nonempty set changes the MAC


def _premise_cells():
    """(profile, core, payload, p_event) for every bundled profile, core
    and payload: at the p_event of a campaign at the core's planned offset
    (listing2 on the sibling thread, pstate the profile's default), and at
    0.05, where most sets hold several stores."""
    for name in processor.bundled_profile_names():
        profile = load_profile(name)
        pstate = profile.default_attack_pstate
        plan = phase1_find_window(profile, "vp1_xor_kernel", pstate, seed=0)
        for core in range(profile.physical_cores):
            env = PlatformState(
                profile, pstate, core, plan.offset_for(core), stressor_profile("listing2")
            )
            for payload, ctx in _HMAC_CONTEXTS.items():
                p_event = pinned_rates(env, ctx.total_events, hmac_scenario(payload))[0]
                yield profile, core, payload, p_event
                yield profile, core, payload, 0.05


def test_no_drawn_fault_set_leaves_the_mac_valid():
    # A single faulted store changes its block's output by construction
    # (see `sha256sim`); two or more could in principle cancel.  About
    # 1000 nonempty sets per cell, drawn as a campaign would draw them,
    # and every one recomputed.
    drawn = {payload: [] for payload in _HMAC_CONTEXTS}
    for i, (profile, core, payload, p_event) in enumerate(_premise_cells()):
        if p_event == 0.0:
            continue
        ctx = _HMAC_CONTEXTS[payload]
        gen = numpy_stream(i, "premise", payload)
        faulted = -math.expm1(ctx.total_events * math.log1p(-p_event))
        ks = gen.binomial(ctx.total_events, p_event, size=min(math.ceil(1000 / faulted), 10**6))
        drawn[payload] += draw_fault_sets(profile, core, store_events(ctx), ks[ks > 0], gen)
    for payload, keys in drawn.items():
        ctx = _HMAC_CONTEXTS[payload]
        assert sum(len(key) > 1 for key in keys) > 10_000
        assert ctx.clean_mac not in macs_with_keys(ctx, keys)


def test_every_single_bit_mask_at_every_store_changes_the_mac():
    for payload, ctx in _HMAC_CONTEXTS.items():
        keys = [((store, 1 << bit),) for store in store_events(ctx) for bit in range(128)]
        assert ctx.clean_mac not in macs_with_keys(ctx, keys)


ALPHA = 1e-4


def _fault_sets(profile, payload, p_event, tries, seed):
    """One run's fault sets as sorted global event lists, and the per-try
    fault counts its binomial block drew, read from a twin generator."""
    ctx = _HMAC_CONTEXTS[payload]
    keys, completed, _ = hmac_fault_sets(
        ctx, profile, 1, p_event, 0.0, tries, numpy_stream(seed, "fault-sets", payload)
    )
    assert completed == tries
    ks = numpy_stream(seed, "fault-sets", payload).binomial(ctx.total_events, p_event, size=tries)
    sets = [[block * EVENTS_PER_BLOCK + event for (block, event), _ in key] for key in keys]
    return ctx, sets, ks[ks > 0].tolist()


@pytest.mark.parametrize("payload", ["hmac32", "hmac1k"])
def test_fault_sets_hold_k_distinct_sorted_events(kaby, payload):
    ctx, sets, ks = _fault_sets(kaby, payload, 0.05, 400, 5)
    assert [len(events) for events in sets] == ks
    assert max(ks) > 1
    for events in sets:
        assert all(a < b for a, b in zip(events, events[1:]))
        assert 0 <= events[0] and events[-1] < ctx.total_events


@pytest.mark.parametrize("payload,p_event", [("hmac32", 0.05), ("hmac1k", 0.02)])
def test_fault_set_events_are_uniform(kaby, payload, p_event):
    ctx, sets, _ = _fault_sets(kaby, payload, p_event, 2_000, 6)
    counts = np.bincount([g for events in sets for g in events], minlength=ctx.total_events)
    assert goodness_of_fit_p(counts, np.ones(ctx.total_events)) > ALPHA


def _campaign_p_event(profile, payload, core):
    env = pinned_state(profile, core, -250, stressor="shift_loop")
    return mean_event_fault_probability(
        profile, core, env.pstate, hmac_scenario(payload), env.stressor.fault_multiplier,
        env.nominal_voltage_mv(), env.temp_c,
    )


def _hmac_run_against_oracle(profile, payload, core, p_event, seed, tries, half=False, c_try=0.0):
    """One `hmac_fault_sets` and `reference_hmac_detail` from one seed.

    The per-try fault counts and the crash geometric are drawn word for
    word alike, so the tries completed, the crash flag and each set's size
    agree exactly.  The stream is keyed by every argument but the rates,
    so pooled runs are independent samples.  `half` enters with a buffered half-word; a positive
    `c_try` cuts the run short.  Returns (our keys, the oracle's keys,
    tries completed).
    """
    ctx = _HMAC_CONTEXTS[payload]
    key = (seed, "hmac-detail", payload, core, tries, int(half))
    ours, theirs = numpy_stream(*key), numpy_stream(*key)
    if half:
        for gen in (ours, theirs):
            gen.integers(0, 9, dtype=np.uint32)
        assert ours.bit_generator.state["has_uint32"] == 1
    keys, completed, crashed = hmac_fault_sets(ctx, profile, core, p_event, c_try, tries, ours)
    total = ctx.total_events
    ks = theirs.binomial(total, p_event, size=tries) if p_event > 0.0 else np.zeros(tries, int)
    assert completed == _hits_before_crash(theirs, 0.0, c_try, tries)[1]
    assert crashed == (completed < tries)
    expected = reference_hmac_detail(ctx, profile, core, ks[:completed], theirs)
    assert [len(key) for key in keys] == [len(key) for key in expected]
    return keys, expected, completed


def _detail_counts(ctx, keys):
    """(faults per global event, masks per bit count 1..7) over `keys`."""
    events = [block * EVENTS_PER_BLOCK + event for key in keys for (block, event), _ in key]
    bits = [mask.bit_count() for key in keys for _, mask in key]
    return np.bincount(events, minlength=ctx.total_events), np.bincount(bits, minlength=8)


@pytest.mark.parametrize("payload", ["hmac32", "hmac1k"])
def test_hmac_detail_draws_replay_choice(kaby, payload):
    ours, theirs = [], []
    for core in range(kaby.physical_cores):
        campaign = _campaign_p_event(kaby, payload, core)
        for seed in range(3):
            for p_event, tries in ((campaign, 400), (0.05, 40)):
                for half in (False, True):
                    keys, expected, _ = _hmac_run_against_oracle(
                        kaby, payload, core, p_event, seed, tries, half
                    )
                    ours += keys
                    theirs += expected
    assert len(ours) > 100
    # Same cores, same set sizes: the faulted stores and the flip masks,
    # pooled, follow the oracle's distribution.
    ctx = _HMAC_CONTEXTS[payload]
    for a, b in zip(_detail_counts(ctx, ours), _detail_counts(ctx, theirs)):
        assert two_sample_p(a, b) > ALPHA
    # A crash cuts the run short: only the completed tries draw their detail.
    _, _, completed = _hmac_run_against_oracle(kaby, payload, 1, 0.05, 4, 200, c_try=0.02)
    assert 0 < completed < 200


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["hmac32", "hmac1k"]),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
)
def test_hmac_detail_draws_straddle_blocks(kaby, payload, core, dense, half, seed, tries):
    # A run of a few tries makes its store block and its mask block empty,
    # one set long or a few sets long; each set takes its own slice of both.
    p_event = 0.05 if dense else _campaign_p_event(kaby, payload, core)
    blocks, real = [], processor.draw_flip_masks

    def recording(*args):
        blocks.append(real(*args))
        return blocks[-1]

    with mock.patch.object(processor, "draw_flip_masks", recording):
        keys, _, _ = _hmac_run_against_oracle(kaby, payload, core, p_event, seed, tries, half)
    (block,) = blocks
    assert [mask for key in keys for _, mask in key] == block
    ctx = _HMAC_CONTEXTS[payload]
    live = sum(1 << b for b in np.flatnonzero(kaby.bit_weights(core)).tolist())
    for key in keys:
        assert ctx._fault_key(dict(key)) == key
        assert all(mask and mask & ~live == 0 for _, mask in key)


@pytest.mark.parametrize("payload", ["hmac32", "hmac1k"])
def test_hmac_run_hands_over_canonical_keys(kaby, payload):
    # The oracle builds each fault set's key itself, unchecked, and the
    # lane pass takes it so; `_fault_key` of the same set must give back
    # exactly that key.
    ctx = _HMAC_CONTEXTS[payload]
    p_event = _campaign_p_event(kaby, payload, 1)
    gen = numpy_stream(3, "canonical-keys", payload)
    keys, _, _ = hmac_fault_sets(ctx, kaby, 1, p_event, 0.0, 1000, gen)
    assert len(keys) > 100
    for key in keys:
        assert type(key) is tuple
        assert ctx._fault_key(dict(key)) == key


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
