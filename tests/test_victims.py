"""Victim runners: stressor registry, test loop, branch PoC, HMAC campaigns."""

import itertools
import math

import numpy as np
import pytest

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
from voltlab.isa import bundled_program, parse_program
from voltlab.orchestrator import phase1_find_window
from voltlab.processor import BitFlipPattern, CrashKind, load_profile
from voltlab.sha256sim import HmacContext
from voltlab.victims import (
    HMAC_KEY,
    LOOP_EVENTS,
    LOOP_SLICES,
    PAYLOADS,
    POC_EVENTS,
    STRESSORS,
    CampaignResult,
    PlatformState,
    RunOutcome,
    RunStatus,
    pinned_rates,
    run_hmac_victim,
    run_poc_enclave,
    run_poc_victim,
    run_probe_victim,
    stressor_profile,
)

from helpers import (
    numpy_stream,
    run_campaigns_out_of_order,
    run_loop_under,
    run_poc_under,
    two_sample_p,
)
from hmac_reference import macs_with_keys, store_events
from slice_reference import (
    campaign_runs,
    faulted_run,
    loop_run,
    loop_victim,
    poc_reference,
    probe_run,
    reference_run,
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
    assert stressor_profile("listing2") is STRESSORS["shift_loop"]
    assert stressor_profile("twofish") is STRESSORS["twofish_avx"]
    for name in ("listing2_shift_loop", "shift", "Listing2"):
        with pytest.raises(UnknownStressor):
            stressor_profile(name)


def test_unknown_stressor():
    with pytest.raises(UnknownStressor):
        stressor_profile("prime95")


# ---------------------------------------------------------------------------
# Outcomes


def test_outcome_validation():
    with pytest.raises(InvariantError):
        RunOutcome(RunStatus.CRASH, 3)
    out = RunOutcome.crashed(CrashKind.FREEZE, 12)
    assert out.crash is CrashKind.FREEZE and out.iterations_executed == 12


# ---------------------------------------------------------------------------
# Test loop


def test_loop_matches_at_nominal_voltage(kaby):
    env = pinned_state(kaby, 1, 0)
    out = run_loop_under(env, 500, vrng.stream(1, "a"))
    assert out.status is RunStatus.MATCH
    assert out.iterations_executed == 500


def test_loop_mismatches_inside_the_window(kaby):
    # 710 mV on core 1 sits right at its window top.
    env = pinned_state(kaby, 1, -240)
    out = run_loop_under(env, 20_000, vrng.stream(2, "b"))
    assert out.status is RunStatus.MISMATCH
    assert 1 <= out.iterations_executed <= 20_000


@pytest.mark.parametrize("offset_mv", [0, -240, -260])
def test_loop_refuses_a_negative_budget(kaby, offset_mv):
    # At nominal voltage (quiet rates), inside the window and below the
    # floor alike, before any draw.
    env = pinned_state(kaby, 1, offset_mv)
    gen = vrng.stream(4, "d")
    with pytest.raises(InvariantError, match="max_iters is nonnegative"):
        run_loop_under(env, -5, gen)
    assert gen.random() == vrng.stream(4, "d").random()


def test_loop_crashes_below_the_floor(kaby):
    env = pinned_state(kaby, 1, -260)  # 690 mV < 695 floor
    out = run_loop_under(env, 20_000, vrng.stream(3, "c"))
    assert out.status is RunStatus.CRASH
    assert out.crash in set(CrashKind)
    assert out.iterations_executed < 20_000


@pytest.mark.parametrize(
    "crash_slice, fault_iter, expect",
    [
        (5, 1, (RunStatus.CRASH, 0)),  # the fault's own iteration: the crash wins
        (6, 1, (RunStatus.MISMATCH, 1)),
        (6, 2, (RunStatus.CRASH, 1)),
        (100, 21, (RunStatus.CRASH, 19)),  # the budget's last slice
        (101, 20, (RunStatus.MISMATCH, 20)),
        (101, 21, (RunStatus.MATCH, 20)),
    ],
)
def test_loop_races_the_first_crash_and_the_first_fault(kaby, crash_slice, fault_iter, expect):
    # Pinned 1-based draws, 20 iterations of `LOOP_SLICES` slices each: a
    # crash anywhere in an iteration comes before that iteration's
    # comparison, and a fault in iteration k stops the loop after k.
    class Pinned:
        draws = [crash_slice, fault_iter]

        def geometric(self, p):
            return self.draws.pop(0)

        def random(self):  # the crash kind
            return 0.5

    rates = victims.LoopRates(0.01, 0.01, 0.001)
    out = victims.run_test_loop(rates, kaby.pstate_point("0x1b").ratio, 20, Pinned())
    assert (out.status, out.iterations_executed) == expect


def test_loop_at_quiet_rates_matches_without_a_draw(kaby):
    gen = vrng.stream(5, "quiet-loop")
    rates = victims.LoopRates(0.0, 0.0, 0.0)
    out = victims.run_test_loop(rates, kaby.pstate_point("0x1b").ratio, 20_000, gen)
    assert (out.status, out.iterations_executed) == (RunStatus.MATCH, 20_000)
    assert gen.random() == vrng.stream(5, "quiet-loop").random()


def test_loop_deterministic(kaby):
    env = pinned_state(kaby, 1, -240)
    a = run_loop_under(env, 5000, vrng.stream(9, "d"))
    b = run_loop_under(env, 5000, vrng.stream(9, "d"))
    assert a == b


def test_loop_rejects_non_halting_programs():
    with pytest.raises(InterpreterError):
        loop_victim("shift_stressor")


def test_loop_mean_iterations_tracks_fault_rate(kaby):
    # At full saturation with no stressor the xor kernel faults at the
    # probe ceiling, 1.8% per iteration on core 1.
    env = pinned_state(kaby, 1, -250)
    lengths = []
    for i in range(120):
        out = run_loop_under(env, 10_000, vrng.stream(i, "g"))
        assert out.status is RunStatus.MISMATCH
        lengths.append(out.iterations_executed)
    mean = np.mean(lengths)
    # Geometric with p=0.018 has mean ~55.6 and sem ~5 over 120 samples.
    assert 40 < mean < 72


LOOP = reference_run(bundled_program("vp1_xor_kernel"))


def test_loop_counts_match_the_reference_run():
    # `run_test_loop` runs no program: it reads the comparison loop's
    # exposure and length from `LOOP_EVENTS` and `LOOP_SLICES`.
    assert len(LOOP.eligible) == 1
    assert LOOP_EVENTS == LOOP.events == 1
    assert LOOP_SLICES == LOOP.slices == 5


def test_loop_every_mask_on_its_store_changes_the_output():
    # `run_test_loop` reports every faulted iteration as a Mismatch.
    # Prove it by re-executing the loop with each mask XORed into its one
    # eligible store: every single-bit mask and 200 seeded multi-bit ones.
    gen = numpy_stream(3, "loop-masks")
    masks = [1 << b for b in range(128)]
    for _ in range(200):
        bits = gen.choice(128, size=int(gen.integers(2, 129)), replace=False)
        masks.append(sum(1 << int(b) for b in bits))
    assert len(set(masks)) == 328
    for mask in masks:
        assert faulted_run(LOOP, {0: mask}).memory != LOOP.output, hex(mask)


# ---------------------------------------------------------------------------
# Branch-diversion PoC


POC = poc_reference()


def test_poc_store_count_matches_the_reference_run():
    # `run_poc_victim` prepares no program: it reads its exposure from
    # `POC_EVENTS`.  The guarded branch executes one eligible store, and its
    # fault-free run halts off `_recovery`, so only a fault diverts it.
    assert len(POC.eligible) == 1
    assert POC_EVENTS == POC.events == 1
    assert POC.halt_index is not None
    assert POC.halt_index != POC.program.labels["_recovery"]


def test_poc_every_drawn_mask_diverts_by_real_execution():
    # `run_poc_enclave` counts every faulted try as a diversion.  Prove it
    # by running the program with each mask XORed into the guarded store:
    # every 1- and 2-bit mask, and every distinct mask the bundled flip
    # tables draw in 5 000 tries on each core.
    masks = {1 << b for b in range(128)}
    masks |= {1 << a | 1 << b for a in range(128) for b in range(a)}
    for name in processor.bundled_profile_names():
        profile = load_profile(name)
        for core in range(profile.physical_cores):
            gen = vrng.stream(11, "poc-masks", name, core)
            masks |= set(processor.draw_flip_masks(profile, core, 5_000, gen))
    recovery = POC.program.labels["_recovery"]
    assert len(masks) > 128 + 128 * 127 // 2
    for mask in masks:
        assert mask != 0
        assert faulted_run(POC, {0: mask}).halt_index == recovery, hex(mask)


def test_bundled_victims_are_prepared_once_and_immutable():
    xor = loop_victim("vp1_xor_kernel")
    assert loop_victim("vp1_xor_kernel") is xor
    assert type(xor.memory) is bytes
    assert type(xor.store_insns) is frozenset
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
    result = run_hmac_victim(env, "hmac32", 300, runs=3)
    assert result.successes == 0


def _campaign_outcome(call):
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
    serial = [_campaign_outcome(call) for call in calls]
    assert serial[2].crashes == 1
    assert serial == [_campaign_outcome(call) for call in calls]
    run_campaigns_out_of_order(monkeypatch, seed=3)
    assert [_campaign_outcome(call) for call in calls] == serial


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


_HMAC_CONTEXTS = {
    payload: HmacContext(HMAC_KEY, message) for payload, (_, message, _) in PAYLOADS.items()
}


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
def test_payload_store_count_matches_the_hmac_context(payload):
    # A campaign reads the count from PAYLOADS and never builds the context.
    _, message, events = PAYLOADS[payload]
    assert events == HmacContext(HMAC_KEY, message).total_events


# -- the premise of the closed-form verdict: every nonempty set changes the MAC


def _premise_cells():
    """(profile, core, payload, p_event) for every bundled profile, core
    and payload: at the p_event of a campaign at the core's planned offset
    (listing2 on the sibling thread, pstate the profile's default), and at
    0.05, where most sets hold several stores."""
    for name in processor.bundled_profile_names():
        profile = load_profile(name)
        pstate = profile.default_attack_pstate
        plan = phase1_find_window(profile, pstate, seed=0)
        for core in range(profile.physical_cores):
            env = PlatformState(
                profile, pstate, core, plan.offset_for(core), stressor_profile("listing2")
            )
            for payload, ctx in _HMAC_CONTEXTS.items():
                p_event = pinned_rates(env, ctx.total_events, PAYLOADS[payload][0])[0]
                yield profile, core, payload, p_event
                yield profile, core, payload, 0.05


def test_no_drawn_fault_set_leaves_the_mac_valid():
    # A single faulted store changes its block's output by construction
    # (see `sha256sim`); two or more could in principle cancel.  About
    # 1000 nonempty sets per cell, drawn as a campaign's tries fault: a
    # binomial count of faulted stores per try, a uniform subset of that
    # many stores (`choice` without replacement) and a flip mask for each;
    # every one recomputed.
    drawn = {payload: [] for payload in _HMAC_CONTEXTS}
    for i, (profile, core, payload, p_event) in enumerate(_premise_cells()):
        if p_event == 0.0:
            continue
        ctx = _HMAC_CONTEXTS[payload]
        stores = store_events(ctx)
        gen = numpy_stream(i, "premise", payload)
        faulted = -math.expm1(ctx.total_events * math.log1p(-p_event))
        ks = gen.binomial(ctx.total_events, p_event, size=min(math.ceil(1000 / faulted), 10**6))
        sets = [sorted(gen.choice(ctx.total_events, k, replace=False).tolist()) for k in ks[ks > 0]]
        masks = iter(processor.draw_flip_masks(profile, core, sum(map(len, sets)), gen))
        # Sorted stores and nonzero masks: the key `ctx._fault_key` would make.
        drawn[payload] += [tuple((stores[g], next(masks)) for g in s) for s in sets]
    for payload, keys in drawn.items():
        ctx = _HMAC_CONTEXTS[payload]
        assert sum(len(key) > 1 for key in keys) > 10_000
        assert ctx.clean_mac not in macs_with_keys(ctx, keys)


def test_every_single_bit_mask_at_every_store_changes_the_mac():
    for payload, ctx in _HMAC_CONTEXTS.items():
        keys = [((store, 1 << bit),) for store in store_events(ctx) for bit in range(128)]
        assert ctx.clean_mac not in macs_with_keys(ctx, keys)


# ---------------------------------------------------------------------------
# Every closed-form runner against the slice-level loop
#
# Cells on core 1 at pstate 0x1b, whose window runs from 710.6 down to
# 695.6 mV with listing2 or shift_loop on the sibling: at 710 mV the noise
# band straddles the window top; 700 mV is mid-window; 698 mV is the
# -252 mV cell of tests/golden/crash_aborts.json, where most campaign runs
# crash; at 694 mV, below the instability line, crashes and faults race
# in a loop or a probe.

ALPHA = 1e-4
RUNS = 200
CELLS = {
    "top": (-240, "listing2"),
    "mid": (-250, "shift_loop"),
    "edge": (-252, "listing2"),
    "deep": (-256, "listing2"),
}

def _in_cell(profile, cell, seed=0):
    offset, stressor = CELLS[cell]
    return pinned_state(profile, 1, offset, stressor, seed)


def _assert_same_distribution(ours, reference):
    """Each column of per-run outcomes follows one distribution in both."""
    for a, b in zip(zip(*ours), zip(*reference)):
        bins = max(a + b) + 1
        assert two_sample_p(np.bincount(a, minlength=bins), np.bincount(b, minlength=bins)) > ALPHA


def _campaign_runs_of(env, victim, tries, n):
    """(successes, tries completed) of `n` campaign runs on the pinned core
    of `env`: a campaign of `n` runs on seed 0, and after each crash, which
    ends a campaign, one of the runs still wanted on the next seed; a
    crashed run's partial included."""
    runs = []
    for seed in itertools.count():
        env = PlatformState(env.profile, env.pstate, env.core, env.offset_mv, env.stressor, seed)
        runs += _campaign_outcome(lambda: _campaign(env, victim, tries, n - len(runs))).per_run
        if len(runs) == n:
            return runs


def _campaign(env, victim, tries, runs):
    if victim == "poc":
        return run_poc_victim(env, tries, runs=runs)
    return run_hmac_victim(env, victim, tries, runs=runs)


def _diverted(flip_sets):
    """Whether the guarded branch, run with each flip set, halts at
    `_recovery`; each distinct set runs once."""
    keys = [tuple(flips.items()) for flips in flip_sets]
    halts = {key: faulted_run(POC, dict(key)).halt_index for key in set(keys)}
    return [halts[key] == POC.program.labels["_recovery"] for key in keys]


def _mac_changed(ctx, flip_sets):
    """Whether each flip set, its ordinals global store events of `ctx`,
    changes the MAC: one lane pass over them all."""
    stores = store_events(ctx)
    keys = [ctx._fault_key({stores[g]: m for g, m in flips.items()}) for flips in flip_sets]
    return [mac != ctx.clean_mac for mac in macs_with_keys(ctx, keys)]


@pytest.mark.parametrize("cell", ["top", "mid", "edge"])
@pytest.mark.parametrize("victim", ["poc", "hmac32", "hmac1k"])
def test_campaign_runs_match_the_slice_loop(kaby, victim, cell):
    env = _in_cell(kaby, cell)
    ours = _campaign_runs_of(env, victim, 100, RUNS)
    gens = [numpy_stream(r, "slice-loop", victim, cell) for r in range(RUNS)]
    if victim == "poc":
        reference = campaign_runs(env, "poc", POC.events, 100, gens, _diverted)
    else:
        ctx = _HMAC_CONTEXTS[victim]
        reference = campaign_runs(
            env, PAYLOADS[victim][0], ctx.total_events, 100, gens,
            lambda flip_sets: _mac_changed(ctx, flip_sets),
        )
    _assert_same_distribution(ours, reference)


# The probe in three of the cells above, and mid-window under shift_loop
# on two i7-8700k cores with other flip tables: on core 1 (`mult_cdf[0]`
# 0.002) nearly every mask is multi-bit, on core 2 (0.589) about 41% are.
PROBE_CELLS = {
    "top": ("i7-7700k", 1, *CELLS["top"]),
    "mid": ("i7-7700k", 1, *CELLS["mid"]),
    "deep": ("i7-7700k", 1, *CELLS["deep"]),
    "i7-8700k-core1": ("i7-8700k", 1, -235, "shift_loop"),  # 770 mV; window 775.6..760.6
    "i7-8700k-core2": ("i7-8700k", 2, -245, "shift_loop"),  # 760 mV; window 765.6..750.6
}


@pytest.mark.parametrize("cell", PROBE_CELLS)
def test_probe_matches_the_slice_loop(cell):
    name, core, offset, stressor = PROBE_CELLS[cell]
    profile = load_profile(name)
    ours, theirs, masks = [], [], []
    for r in range(RUNS):
        ours.append(run_probe_victim(pinned_state(profile, core, offset, stressor, seed=r), 100))
        faults, completed, run_masks = probe_run(
            pinned_state(profile, core, offset, stressor, seed=0), LOOP, 100,
            numpy_stream(r, "slice-probe", cell),
        )
        theirs.append((faults, completed, len(run_masks)))
        masks += run_masks
    tallied = [(s.faults, s.tries, sum(s.multiplicity_histogram.values())) for s in ours]
    _assert_same_distribution(tallied, theirs)
    patterns = [BitFlipPattern(0, mask) for mask in masks]
    bytes_hist = np.bincount([b for p in patterns for b in p.byte_positions], minlength=16)
    bits = np.bincount([min(p.multiplicity, 3) - 1 for p in patterns], minlength=3)
    assert two_sample_p(np.sum([s.byte_histogram for s in ours], axis=0), bytes_hist) > ALPHA
    assert two_sample_p(np.sum([s.bucketed() for s in ours], axis=0), bits) > ALPHA


@pytest.mark.parametrize("name", processor.bundled_profile_names())
def test_probe_tallies_one_mask_per_faulty_try(name):
    # At the default pstate and the phase-1 plan's offsets, on every core:
    # each faulty try faults the loop's one store, so the multiplicity
    # histogram counts exactly `faults` masks, and each mask flips at
    # least one byte lane.
    profile = load_profile(name)
    plan = phase1_find_window(profile, seed=3)
    for core in range(profile.physical_cores):
        env = PlatformState(
            profile, plan.pstate, core, plan.offset_for(core), STRESSORS["shift_loop"], 3
        )
        stats = run_probe_victim(env, 2_000)
        assert 0 < stats.faults <= stats.tries <= 2_000, (name, core)
        assert sum(stats.multiplicity_histogram.values()) == stats.faults, (name, core)
        assert sum(stats.byte_histogram) >= stats.faults, (name, core)


@pytest.mark.parametrize("cell", ["top", "mid", "edge", "deep"])
def test_test_loop_matches_the_slice_loop(kaby, cell):
    # The status a run ends in and the iteration it stops at.  The slice
    # loop re-executes the comparison loop with each faulted store's mask.
    ref = reference_run(bundled_program("vp1_xor_kernel"))
    env = _in_cell(kaby, cell)
    statuses = list(RunStatus)

    def outcome(status, iterations):
        return statuses.index(status), iterations

    ours, theirs = [], []
    for r in range(RUNS):
        out = run_loop_under(env, 20, vrng.stream(r, "loop-vs-slices", cell))
        ours.append(outcome(out.status, out.iterations_executed))
        theirs.append(outcome(*loop_run(env, ref, 20, numpy_stream(r, "slice-loop", cell))))
    _assert_same_distribution(ours, theirs)


def test_payload_names(kaby):
    env = pinned_state(kaby, 1, 0)
    assert run_hmac_victim(env, "hmac32", 10, runs=1).scenario == "hmac_32b"
    assert run_hmac_victim(env, "hmac1k", 10, runs=1).scenario == "hmac_1kb"
    for other in ("hmac_32b", "hmac_1kb", "32", "1024", 32, 1024, "HMAC32", "hmac2k", [32]):
        with pytest.raises(InvariantError, match=r"payload is one of \['hmac1k', 'hmac32'\]"):
            run_hmac_victim(env, other, 10, runs=1)


def test_campaign_result_validation():
    with pytest.raises(InvariantError):
        CampaignResult(1, "poc", 10, 11, 0, ((11, 10),), 0.0, 0.0)
    with pytest.raises(InvariantError):
        CampaignResult(1, "poc", 10, 2, 0, ((1, 10),), 0.0, 0.0)
    ok = CampaignResult.from_runs(1, "poc", [(5, 10), (7, 10)])
    assert ok.mean_per_10k == pytest.approx(6000.0)
    assert ok.to_json()["per_run"] == [[5, 10], [7, 10]]
