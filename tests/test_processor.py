"""Voltage geometry, fault sampling, crash process, temperature model."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_flip_pattern, update_temperature
from voltlab import processor
from voltlab import rng as vrng
from voltlab.errors import InvariantError, SchemaError, UnknownCoreOrPState
from voltlab.processor import (
    BitFlipPattern,
    CrashKind,
    EligibleStoreEvent,
    PlatformState,
    ProcessorProfile,
    ROLE_ATTACKER,
    ROLE_IDLE,
    ROLE_VICTIM,
    VoltageRegion,
    bundled_profile_names,
    classify_voltage,
    crash_kind_weights,
    crash_probability_per_slice,
    draw_crash_kind,
    draw_flip_masks,
    draw_flip_pattern,
    effective_window_top_mv,
    event_fault_probability,
    load_profile,
    normalize_pstate,
    region_boundaries_mv,
    sample_crash,
    sample_fault,
)
from voltlab.sha256sim import HmacContext
from voltlab.victims import HMAC_KEY, PAYLOAD_SIZES, _payload_bytes

pytestmark = [
    pytest.mark.filterwarnings("error"),
    # Hypothesis's report hook touches `mypy_extensions.TypedDict`; as an
    # error inside the hook, that warning aborts the session when a
    # property test fails, instead of reporting the failure.
    pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    ),
]


@pytest.fixture(scope="module")
def kaby():
    return load_profile("i7-7700K")


@pytest.fixture(scope="module")
def coffee():
    return load_profile("i7-8700K")


def idle_state(profile, pstate, offset_mv=0, victim=None, temps=None):
    roles = [ROLE_IDLE] * profile.logical_cores()
    if victim is not None:
        roles[victim] = ROLE_VICTIM
    return PlatformState(
        profile=profile,
        pstate=pstate,
        offset_mv={0: offset_mv},
        assignment=tuple(roles),
        core_temp_c=temps,
    )


# -- loading and validation -------------------------------------------------


def test_bundled_profiles_present():
    assert bundled_profile_names() == ["i7-7700", "i7-7700k", "i7-8700k"]


@pytest.mark.parametrize("name", ["i7-7700K", "i7-7700k", "I7-8700K", "i7-7700"])
def test_load_by_name_case_insensitive(name):
    prof = load_profile(name)
    assert prof.physical_cores in (4, 6)


def test_load_by_path(tmp_path, kaby):
    res = __import__("importlib.resources", fromlist=["files"]).files("voltlab")
    text = res.joinpath("data/profiles/i7-7700k.json").read_text()
    p = tmp_path / "copy.json"
    p.write_text(text)
    prof = load_profile(p)
    assert prof.name == kaby.name


def test_unknown_bundled_name():
    with pytest.raises(SchemaError):
        load_profile("i9-9999X")


def _raw_profile():
    res = __import__("importlib.resources", fromlist=["files"]).files("voltlab")
    return json.loads(res.joinpath("data/profiles/i7-7700k.json").read_text())


def test_missing_field_is_schema_error():
    raw = _raw_profile()
    del raw["noise_mv"]
    with pytest.raises(SchemaError):
        ProcessorProfile(raw)


def test_multiplicity_must_sum_to_one():
    raw = _raw_profile()
    raw["multiplicity"][1][0] += 0.25
    with pytest.raises(InvariantError):
        ProcessorProfile(raw)


def test_fault_voltage_below_base():
    raw = _raw_profile()
    raw["pstates"]["0x1b"]["fault_voltage_v"][0] = 2.0
    with pytest.raises(InvariantError):
        ProcessorProfile(raw)


def test_affinity_needs_positive_weight():
    raw = _raw_profile()
    raw["byte_affinity"][2] = [0.0] * 16
    with pytest.raises(InvariantError):
        ProcessorProfile(raw)


@pytest.mark.parametrize("weight", [5e-324, 1e308])
def test_affinity_must_survive_the_spread_over_bits(weight):
    # Both rows pass the sign and sum checks, but spreading them over 128
    # bits gives zero weights (underflow) or an infinite sum (overflow).
    raw = _raw_profile()
    raw["byte_affinity"][1] = [weight] * 16
    with pytest.raises(InvariantError, match="per bit"):
        ProcessorProfile(raw)


def test_calibration_range_checked():
    raw = _raw_profile()
    raw["calibration"]["probe"]["p_event_max"][0] = 1.5
    with pytest.raises(InvariantError):
        ProcessorProfile(raw)


@pytest.mark.parametrize("form", ["0x1b", "0x1B", "1b", 27])
def test_normalize_pstate_forms(form):
    assert normalize_pstate(form) == "0x1b"


def test_normalize_pstate_range():
    with pytest.raises(UnknownCoreOrPState):
        normalize_pstate(0)
    with pytest.raises(UnknownCoreOrPState):
        normalize_pstate(256)


def test_unknown_core_and_pstate(kaby):
    with pytest.raises(UnknownCoreOrPState):
        kaby.check_core(4)
    with pytest.raises(UnknownCoreOrPState):
        kaby.pstate_point("0x55")


# -- region classification ----------------------------------------------------

# i7-7700K core 0 at 800 MHz, reference temperature: window top 0.540 V,
# 5 mV window, 15 mV corrected band above it.
KABY_08_CASES = [
    (0.700, VoltageRegion.NORMAL),
    (0.556, VoltageRegion.NORMAL),
    (0.555, VoltageRegion.CORRECTED_ERRORS),
    (0.545, VoltageRegion.CORRECTED_ERRORS),
    (0.541, VoltageRegion.CORRECTED_ERRORS),
    (0.540, VoltageRegion.EXPLOIT_WINDOW),
    (0.536, VoltageRegion.EXPLOIT_WINDOW),
    (0.535, VoltageRegion.UNSTABLE),
    (0.530, VoltageRegion.UNSTABLE),
]


@pytest.mark.parametrize("volts,region", KABY_08_CASES)
def test_regions_at_reference_temp(kaby, volts, region):
    assert classify_voltage(kaby, 0, "0x08", volts, 32.0) == region


def test_region_boundaries_are_exact(kaby):
    corrected_top, top, floor = region_boundaries_mv(kaby, 0, "0x08", 32.0)
    assert (corrected_top, top, floor) == (555.0, 540.0, 535.0)


def test_heat_raises_the_window(kaby):
    # +10 C over reference lifts the top by 2 mV: 0.541 V flips from
    # corrected to exploitable.
    assert classify_voltage(kaby, 0, "0x08", 0.541, 32.0) == VoltageRegion.CORRECTED_ERRORS
    assert classify_voltage(kaby, 0, "0x08", 0.541, 42.0) == VoltageRegion.EXPLOIT_WINDOW
    assert effective_window_top_mv(kaby, 0, "0x08", 42.0) == pytest.approx(542.0)


def test_cold_lowers_the_window(kaby):
    # 10 C below reference drops the whole window by 2 mV: what was barely
    # unstable is now inside the window, what was in-window is now above it.
    assert classify_voltage(kaby, 0, "0x08", 0.534, 32.0) == VoltageRegion.UNSTABLE
    assert classify_voltage(kaby, 0, "0x08", 0.534, 22.0) == VoltageRegion.EXPLOIT_WINDOW
    assert classify_voltage(kaby, 0, "0x08", 0.539, 22.0) == VoltageRegion.CORRECTED_ERRORS


def test_region_monotone_in_voltage():
    for name in bundled_profile_names():
        prof = load_profile(name)
        for pstate in prof.pstates:
            for core in range(prof.physical_cores):
                sweep = [
                    classify_voltage(prof, core, pstate, v / 1000.0, 40.0)
                    for v in range(400, 1300)
                ]
                # Lower voltage never lands in a milder region.
                assert all(a >= b for a, b in zip(sweep, sweep[1:]))


def test_every_region_reachable(kaby):
    for pstate in kaby.pstates:
        for core in range(kaby.physical_cores):
            regions = {
                classify_voltage(kaby, core, pstate, v / 1000.0, 40.0)
                for v in range(300, 1400)
            }
            assert regions == set(VoltageRegion)


def test_window_tops_spread_across_cores():
    # Sibling cores differ, but only by a handful of millivolts.
    for name in bundled_profile_names():
        prof = load_profile(name)
        for pstate, point in prof.pstates.items():
            spread = max(point.fault_voltage_mv) - min(point.fault_voltage_mv)
            assert 5.0 <= spread <= 10.0, (name, pstate)


# -- fault probability ---------------------------------------------------------


def test_no_faults_outside_window(kaby):
    for v_mv in (700.0, 556.0, 545.0, 535.0, 500.0):
        p = event_fault_probability(kaby, 0, "0x08", "probe", 1.0, v_mv, 32.0)
        assert p == 0.0


def test_ramp_saturates_halfway(kaby):
    ceiling = kaby.calibration_entry("probe").p_event_max[0]
    # 0x1b window: top 700 mV, 15 mV wide; halfway is 692.5 mV.
    shallow = event_fault_probability(kaby, 0, "0x1b", "probe", 1.0, 699.25, 37.0)
    deep = event_fault_probability(kaby, 0, "0x1b", "probe", 1.0, 692.5, 37.0)
    deeper = event_fault_probability(kaby, 0, "0x1b", "probe", 1.0, 688.0, 37.0)
    assert shallow == pytest.approx(ceiling * (0.75 / 7.5))
    assert deep == pytest.approx(ceiling)
    assert deeper == pytest.approx(ceiling)


def test_gated_scenarios_dead_at_low_pstates(kaby):
    # Same depth, same core: the probe scenario fires at 800 MHz but the
    # gated proof-of-concept scenario does not.
    assert event_fault_probability(kaby, 0, "0x08", "probe", 1.0, 538.0, 32.0) > 0.0
    assert event_fault_probability(kaby, 0, "0x08", "poc", 1.0, 538.0, 32.0) == 0.0
    assert event_fault_probability(kaby, 0, "0x1b", "poc", 1.0, 692.0, 37.0) > 0.0


def test_stressor_multiplier_scales_and_clamps(kaby):
    base = event_fault_probability(kaby, 1, "0x1b", "poc", 1.0, 700.0, 37.0)
    boosted = event_fault_probability(kaby, 1, "0x1b", "poc", 24.75, 700.0, 37.0)
    assert boosted == pytest.approx(min(base * 24.75, 1.0))
    assert event_fault_probability(kaby, 1, "0x1b", "poc", 1e9, 700.0, 37.0) == 1.0


def test_sample_fault_rate_matches_ceiling(kaby):
    # At 5 mV above the instability line the ramp is saturated for every
    # noise draw, so the hit rate is the ceiling times the multiplier.
    state = idle_state(kaby, "0x1b", victim=1, temps=[30.0, 40.0, 30.0, 30.0])
    state.stressor_fault_multiplier = 24.75
    state.offset_mv[0] = -250  # 950 -> 700 mV; core 1 top is 710+0.6
    gen = vrng.stream(7, "fault-rate")
    event = EligibleStoreEvent("poc", word_index=3)
    hits = sum(
        sample_fault(kaby, state, 1, event, gen) is not None for _ in range(4000)
    )
    # q = 0.99 by calibration; 3 sigma of 4000 draws is ~19.
    assert abs(hits - 0.99 * 4000) < 25


def test_sample_fault_silent_above_window(kaby):
    state = idle_state(kaby, "0x1b", victim=1)
    gen = vrng.stream(8, "quiet")
    event = EligibleStoreEvent("poc", word_index=0)
    assert all(
        sample_fault(kaby, state, 1, event, gen) is None for _ in range(2000)
    )


# -- noise-averaged marginals -----------------------------------------------------


def numeric_mean(fn, v, half_width, steps=200_001):
    import numpy as _np

    xs = _np.linspace(v - half_width, v + half_width, steps)
    return float(_np.mean([fn(x) for x in xs]))


def test_mean_fault_probability_matches_dense_grid(kaby):
    from voltlab.processor import mean_event_fault_probability

    for v in (712.0, 710.0, 706.0, 700.0, 697.0, 694.0, 692.0):
        closed = mean_event_fault_probability(kaby, 1, "0x1b", "probe", 1.0, v, 37.0)
        dense = numeric_mean(
            lambda x: event_fault_probability(kaby, 1, "0x1b", "probe", 1.0, x, 37.0),
            v,
            kaby.noise_mv,
        )
        assert closed == pytest.approx(dense, abs=2e-5), v


def test_mean_fault_probability_saturates_at_attack_level(kaby):
    from voltlab.processor import mean_event_fault_probability

    # 5 mV above instability, every noise draw stays saturated in-window.
    point = kaby.pstate_point("0x1b")
    for core in range(4):
        top = point.fault_voltage_mv[core]
        v_att = top - point.exploit_window_mv + 5.0
        ceiling = kaby.calibration_entry("poc").p_event_max[core] * 24.75
        got = mean_event_fault_probability(kaby, core, "0x1b", "poc", 24.75, v_att, 37.0)
        assert got == pytest.approx(min(ceiling, 1.0), abs=1e-12)


def test_mean_fault_probability_with_clamped_ceiling(kaby):
    from voltlab.processor import mean_event_fault_probability

    # Force the per-event cap into the middle of the noise band and check
    # against the dense grid.
    v = 699.0
    closed = mean_event_fault_probability(kaby, 1, "0x1b", "poc", 1000.0, v, 37.0)
    dense = numeric_mean(
        lambda x: event_fault_probability(kaby, 1, "0x1b", "poc", 1000.0, x, 37.0),
        v,
        kaby.noise_mv,
    )
    assert closed == pytest.approx(dense, abs=2e-5)


def test_mean_crash_probability_matches_dense_grid(kaby):
    from voltlab.processor import mean_crash_probability

    # Core 1 at the 37 C reference: top 710.0 mV, floor 695.0 mV.
    for v in (700.0, 697.0, 695.6, 695.0, 693.0, 680.0, 600.0):
        closed = mean_crash_probability(kaby, 1, "0x1b", v, 37.0)
        dense = numeric_mean(
            lambda x: crash_probability_per_slice(kaby, 27, 695.0 - x),
            v,
            kaby.noise_mv,
        )
        assert closed == pytest.approx(dense, abs=2e-5), v


def test_mean_crash_probability_zero_above_floor(kaby):
    from voltlab.processor import mean_crash_probability

    # Core 1 floor at reference temp: 710 - 15 = 695 mV; the noise band
    # bottoms out above it from 697.5 mV up.
    assert mean_crash_probability(kaby, 1, "0x1b", 697.6, 37.0) == 0.0
    assert mean_crash_probability(kaby, 1, "0x1b", 697.0, 37.0) > 0.0


# -- flip patterns ---------------------------------------------------------------


def test_flip_pattern_invariants():
    with pytest.raises(InvariantError):
        BitFlipPattern(0, frozenset())
    with pytest.raises(InvariantError):
        BitFlipPattern(0, frozenset([128]))
    pat = BitFlipPattern(2, frozenset([5, 17]))
    assert pat.mask == (1 << 5) | (1 << 17)
    assert pat.byte_positions == {0, 2}
    assert pat.multiplicity == 2


def test_flips_respect_byte_affinity(kaby, coffee):
    gen = vrng.stream(11, "affinity")
    support = {
        core: {b for b in range(16) if kaby.byte_affinity[core][b] > 0}
        for core in range(4)
    }
    for core in range(4):
        for _ in range(300):
            pat = draw_flip_pattern(kaby, core, 0, gen)
            assert pat.byte_positions <= support[core]
    # Coffee Lake core 3 concentrates on a single byte.
    for _ in range(300):
        pat = draw_flip_pattern(coffee, 3, 0, gen)
        assert pat.byte_positions == {4}


def test_multiplicity_distribution(coffee):
    # Core 1 almost always flips three or more bits; core 3 almost never.
    gen = vrng.stream(12, "mult")
    many = [draw_flip_pattern(coffee, 1, 0, gen).multiplicity for _ in range(2000)]
    rare = [draw_flip_pattern(coffee, 3, 0, gen).multiplicity for _ in range(2000)]
    assert sum(m >= 3 for m in many) / 2000 > 0.98
    assert sum(m == 1 for m in rare) / 2000 > 0.99
    assert max(many) <= 7


# -- flip draws against the `Generator.choice` oracle ------------------------


def _replay_matches_choice(profile, core, seed, draws):
    """Draw `draws` patterns both ways from one seed; return the retry count."""
    ours, theirs = vrng.stream(seed, "flips"), vrng.stream(seed, "flips")
    with mock.patch.object(
        processor, "_later_rounds", wraps=processor._later_rounds
    ) as retries:
        for _ in range(draws):
            assert draw_flip_pattern(profile, core, 3, ours) == reference_flip_pattern(
                profile, core, 3, theirs
            )
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    return retries.call_count


@pytest.mark.parametrize("name", bundled_profile_names())
def test_flip_draws_replay_choice_on_bundled_profiles(name):
    profile = load_profile(name)
    retries = sum(
        _replay_matches_choice(profile, core, seed, 300)
        for core in range(profile.physical_cores)
        for seed in range(50)
    )
    assert retries > 0


_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def _flip_tables(draw):
    """(affinity row, multiplicity row, forces a retry) for one core."""
    shape = draw(st.sampled_from(["general", "sparse", "dominant"]))
    if shape == "general":
        affinity = draw(st.lists(_WEIGHT, min_size=16, max_size=16).filter(any))
    else:
        # One or two bytes carry (almost) all the weight, so a 3+ bit
        # pattern lands on the same bits twice and `choice` draws again.
        # A sparse row still spreads over 8 bits, more than the 7 a
        # pattern can take, so no loadable profile clamps `k`.
        heavy = draw(st.lists(st.integers(0, 15), min_size=1, max_size=2, unique=True))
        light = 0.0 if shape == "sparse" else draw(st.floats(1e-6, 1e-2))
        affinity = [1000.0 if b in heavy else light for b in range(16)]
    mult = draw(st.lists(_WEIGHT, min_size=3, max_size=3).filter(any))
    forces_retry = shape != "general"
    if forces_retry:
        mult[2] = sum(mult) + 1.0  # at least half the patterns take 3+ bits
    total = sum(mult)
    return affinity, [m / total for m in mult], forces_retry


@settings(max_examples=60, deadline=None)
@given(_flip_tables(), st.integers(0, 2**32 - 1))
def test_flip_draws_replay_choice_on_random_tables(tables, seed):
    affinity, mult, forces_retry = tables
    raw = _raw_profile()
    raw["byte_affinity"][1] = affinity
    raw["multiplicity"][1] = mult
    retries = _replay_matches_choice(ProcessorProfile(raw), 1, seed, 300)
    if forces_retry:
        assert retries > 0


def _block_matches_choice(profile, core, seed, n):
    """`draw_flip_masks` against `n` oracle patterns from one seed; return the retry count."""
    ours, theirs = vrng.stream(seed, "flips"), vrng.stream(seed, "flips")
    with mock.patch.object(
        processor, "_later_rounds", wraps=processor._later_rounds
    ) as retries:
        masks = draw_flip_masks(profile, core, n, ours)
    assert masks == [reference_flip_pattern(profile, core, 0, theirs).mask for _ in range(n)]
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    return retries.call_count


@pytest.mark.parametrize("name", bundled_profile_names())
def test_flip_blocks_replay_choice_on_bundled_profiles(name):
    profile = load_profile(name)
    retries = sum(
        _block_matches_choice(profile, core, seed, n)
        for core in range(profile.physical_cores)
        for seed in range(2)
        for n in (0, 1, 2, 7, 500)
    )
    assert retries > 0


@settings(max_examples=25, deadline=None)
@given(_flip_tables(), st.integers(0, 2**32 - 1), st.integers(1, 64))
def test_flip_blocks_replay_choice_on_random_tables(tables, seed, block):
    # A small block makes patterns straddle block draws, retries included.
    affinity, mult, forces_retry = tables
    raw = _raw_profile()
    raw["byte_affinity"][1] = affinity
    raw["multiplicity"][1] = mult
    with mock.patch.object(processor, "_BLOCK", block):
        retries = _block_matches_choice(ProcessorProfile(raw), 1, seed, 300)
    if forces_retry:
        assert retries > 0


def test_binomial_replay_matches_numpy():
    ours, theirs = vrng.stream(18, "binomial"), vrng.stream(18, "binomial")
    n = 100_000
    expected = [int(theirs.binomial(4, 0.2)) for _ in range(n)]
    u, pos, got = ours.random(n).tolist(), 0, []
    while pos < n:
        x, pos = processor._binomial(u, pos)
        got.append(x)
    assert got == expected
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    # Even the largest uniform stops at 4, inside numpy's bound: one uniform per draw.
    assert processor._binomial([np.nextafter(1.0, 0.0)], 0) == (4, 1)


def _next_words(seed, words, has_uint32=0, uinteger=0):
    """A Philox stream whose next four words are `words`, with the given half-word buffer."""
    gen = vrng.stream(seed, "ties")
    state = gen.bit_generator.state
    state["buffer"] = np.array(words, dtype=np.uint64)
    state["buffer_pos"] = 0
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    gen.bit_generator.state = state
    return gen


def _next_uniforms(seed, uniforms):
    """A Philox stream whose next four uniforms are `uniforms` (multiples of 2**-53)."""
    return _next_words(seed, [int(u * 2**53) << 11 for u in uniforms])


def test_flip_draws_break_cdf_ties_like_choice():
    # `choice` bisects with side="right": a uniform equal to a CDF entry
    # takes the index above it.  Bucket CDF (0.5, 0.75, 1); bit CDF k/16
    # over bits 0..15.
    raw = _raw_profile()
    raw["multiplicity"][1] = [0.5, 0.25, 0.25]
    raw["byte_affinity"][1] = [1.0, 1.0] + [0.0] * 14
    profile = ProcessorProfile(raw)
    # The CDF of the round after bit 8 was drawn twice; entry 9 is 0.6.
    p = profile.bit_weights(1).copy()
    p[8] = 0
    retry_cdf = np.cumsum(p)
    retry_cdf /= retry_cdf[-1]
    cases = [
        # One bit at 0.5: bit 8.  Then 0.5 is bucket 1 (two bits), bit 8 first.
        ((0.25, 0.5, 0.5, 0.5), {8}),
        # Bucket 1, bit 8 twice, then the retry round's tie: bits 8 and 10.
        ((0.5, 0.5, 0.5, float(retry_cdf[9])), {8, 10}),
    ]
    for uniforms, first_bits in cases:
        reference = reference_flip_pattern(profile, 1, 0, _next_uniforms(19, uniforms))
        assert reference.flipped_bits == first_bits
        for n in (1, 2, 3):
            ours, theirs = _next_uniforms(19, uniforms), _next_uniforms(19, uniforms)
            masks = draw_flip_masks(profile, 1, n, ours)
            assert masks == [reference_flip_pattern(profile, 1, 0, theirs).mask for _ in range(n)]
            np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
        ours, theirs = _next_uniforms(19, uniforms), _next_uniforms(19, uniforms)
        for _ in range(2):
            assert draw_flip_pattern(profile, 1, 2, ours) == reference_flip_pattern(
                profile, 1, 2, theirs
            )


def _threshold_words(r):
    """Words whose half-words sit on both sides of Lemire's threshold `t`
    for range `r` (`r + 1` odd): the low half leaves `t - 1` in the low
    bits of the product and is rejected, the high half leaves `t` and is
    kept.  A zero half-word leaves 0 and is rejected too."""
    t = (2**32 - 1 - r) % (r + 1)
    assert t > 0
    inv = pow(r + 1, -1, 2**32)
    edge = (t - 1) * inv % 2**32 | (t * inv % 2**32) << 32
    return [edge, 0, edge, 0]


@pytest.mark.parametrize("r", [6, 54, 278, 9_998, 3 * 2**30 - 2])
@pytest.mark.parametrize("has_uint32", [0, 1])
def test_bounded_replays_lemire_through_rejections(r, has_uint32):
    ours = _next_words(20, _threshold_words(r), has_uint32, 0)
    theirs = _next_words(20, _threshold_words(r), has_uint32, 0)
    words = processor._Words(ours, halves=True)
    got = [words.bounded(r) for _ in range(12)]
    words.close()
    assert got == [int(theirs.integers(0, r, endpoint=True, dtype=np.uint32)) for _ in range(12)]
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 56, 280, 10_000])
def test_choice_replays_floyd_and_the_shuffle(n):
    # k == n starts Floyd's walk at j = 0, a bound that draws nothing.
    ours, theirs = vrng.stream(n, "floyd"), vrng.stream(n, "floyd")
    sizes = sorted({0, 1, 2, n // 2, n - 1, n} & set(range(min(n, 300) + 1)))
    words = processor._Words(ours, halves=True)
    for k in sizes * 3:  # later passes start on other half-word buffer states
        assert words.choice(n, k) == sorted(theirs.choice(n, k, replace=False).tolist())
    words.close()
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


def test_choice_refuses_populations_past_floyd(kaby):
    gen = vrng.stream(0, "floyd")
    with pytest.raises(InvariantError):
        processor._Words(gen, halves=True).choice(10_001, 1)
    with pytest.raises(InvariantError):
        processor.draw_fault_sets(kaby, 1, 10_001, [1], gen)


def test_hmac_populations_are_floyd_sized():
    # `_hmac_single_run` replays `choice` over these totals.
    totals = {
        payload: HmacContext(HMAC_KEY, _payload_bytes(payload)).total_events
        for payload in PAYLOAD_SIZES
    }
    assert totals == {"hmac32": 56, "hmac1k": 280}
    assert max(totals.values()) <= processor._FLOYD_MAX


@pytest.mark.parametrize("ratio", [8, 16, 27, 32, 36, 42])
def test_crash_kind_draw_replays_choice(ratio):
    ours, theirs = vrng.stream(16, "kind"), vrng.stream(16, "kind")
    for _ in range(500):
        expected = CrashKind(int(theirs.choice(3, p=crash_kind_weights(ratio))))
        assert draw_crash_kind(ratio, ours) == expected
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


# -- crash process ---------------------------------------------------------------


def test_no_crash_inside_window(kaby):
    state = idle_state(kaby, "0x1b", victim=1, temps=[30.0, 37.0, 30.0, 30.0])
    state.offset_mv[0] = -245  # 705 mV, well above core 1 instability at 695
    gen = vrng.stream(13, "stable")
    assert all(sample_crash(kaby, state, gen) is None for _ in range(4000))


def test_crash_rate_grows_with_depth(kaby):
    gen = vrng.stream(14, "depth")
    point = kaby.pstate_point("0x1b")
    state = idle_state(kaby, "0x1b", victim=1, temps=[30.0, 37.0, 30.0, 30.0])
    shallow = sum(
        sample_crash(kaby, state, gen, v_eff_mv=694.0) is not None for _ in range(3000)
    )
    deep = sum(
        sample_crash(kaby, state, gen, v_eff_mv=680.0) is not None for _ in range(3000)
    )
    assert shallow < deep
    # Closed form at 0x1b (ratio 27): rate * (1 + 0.4 * depth) * (0.5 + 27/64).
    expected = crash_probability_per_slice(kaby, point.ratio, 695.0 - 680.0)
    assert abs(deep / 3000 - expected) < 0.02
    assert expected == pytest.approx(0.02 * 7.0 * (0.5 + 0.5 * 27 / 32))


def test_crash_kind_depends_on_ratio(kaby):
    gen = vrng.stream(15, "kinds")
    fast = idle_state(kaby, "0x2a", victim=0, temps=[50.0, 30.0, 30.0, 30.0])
    slow = idle_state(kaby, "0x08", victim=0, temps=[32.0, 30.0, 30.0, 30.0])

    def kinds(state, floor_mv, n=600):
        out = []
        while len(out) < n:
            k = sample_crash(kaby, state, gen, v_eff_mv=floor_mv - 30.0)
            if k is not None:
                out.append(k)
        return out

    fast_kinds = kinds(fast, 915.0)
    slow_kinds = kinds(slow, 535.0)
    assert fast_kinds.count(CrashKind.HARD_CRASH) > fast_kinds.count(
        CrashKind.KERNEL_EXCEPTION
    )
    assert slow_kinds.count(CrashKind.KERNEL_EXCEPTION) > 2 * slow_kinds.count(
        CrashKind.HARD_CRASH
    )


def test_kind_weights_normalized():
    for ratio in (8, 16, 27, 32, 36, 42):
        w = crash_kind_weights(ratio)
        assert w.sum() == pytest.approx(1.0)
        assert (w > 0).all()


# -- temperature -------------------------------------------------------------------


def test_idle_machine_settles_at_ambient(kaby):
    state = idle_state(kaby, "0x1b", temps=[55.0, 41.0, 33.0, 62.0])
    for _ in range(400):
        update_temperature(state, 0.25)
    assert np.allclose(state.core_temp_c, kaby.ambient_temp_c, atol=0.01)


def test_victim_core_heats_to_reference(coffee):
    state = idle_state(coffee, "0x1b", victim=0)
    state.stressor_temp_boost_c = 3.0
    for _ in range(400):
        update_temperature(state, 0.25)
    # Coffee Lake 2.7 GHz reference is 44 C; the shift stressor adds 3.
    assert state.core_temp_c[0] == pytest.approx(47.0, abs=0.01)
    assert np.allclose(state.core_temp_c[1:], 30.0, atol=0.01)


def test_attacker_core_runs_barely_warm(kaby):
    roles = [ROLE_IDLE] * 8
    roles[2] = ROLE_ATTACKER
    state = PlatformState(profile=kaby, pstate="0x1b", assignment=tuple(roles))
    for _ in range(400):
        update_temperature(state, 0.25)
    assert state.core_temp_c[2] == pytest.approx(31.0, abs=0.01)


def test_temperature_approach_is_monotone(kaby):
    state = idle_state(kaby, "0x20", victim=3, temps=[30.0, 30.0, 30.0, 30.0])
    last = state.core_temp_c[3]
    for _ in range(50):
        update_temperature(state, 0.1)
        assert state.core_temp_c[3] >= last
        last = state.core_temp_c[3]
    assert last < kaby.pstate_point("0x20").reference_temp_c + 0.5


def test_zero_dt_is_identity(kaby):
    state = idle_state(kaby, "0x1b", victim=1, temps=[31.0, 39.0, 30.0, 33.0])
    before = state.core_temp_c.copy()
    update_temperature(state, 0.0)
    assert np.array_equal(state.core_temp_c, before)
    with pytest.raises(InvariantError):
        update_temperature(state, -1.0)


# -- platform state ------------------------------------------------------------------


def test_state_validates_assignment(kaby):
    with pytest.raises(InvariantError):
        PlatformState(profile=kaby, pstate="0x1b", assignment=("idle",) * 3)
    roles = [ROLE_VICTIM, ROLE_VICTIM] + [ROLE_IDLE] * 6
    with pytest.raises(InvariantError):
        PlatformState(profile=kaby, pstate="0x1b", assignment=tuple(roles))


def test_state_topology_helpers(kaby):
    state = idle_state(kaby, "0x1b", victim=6)
    assert state.victim_logical == 6
    assert state.victim_physical == 2
    assert state.partner_of(6) == 2
    assert state.partner_of(2) == 6
    assert state.nominal_voltage_mv() == pytest.approx(950.0)
    state.offset_mv[0] = -230
    assert state.nominal_voltage_mv() == pytest.approx(720.0)


def test_state_rejects_weak_multiplier(kaby):
    with pytest.raises(InvariantError):
        PlatformState(profile=kaby, pstate="0x1b", stressor_fault_multiplier=0.5)
