"""Voltage geometry, fault sampling, crash process, the pinned victim."""

import functools
import importlib.util
import itertools
import json
import pathlib
import pickle
import random
from collections import Counter
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from helpers import goodness_of_fit_p, numpy_stream, reference_flip_pattern, two_sample_p
from slice_reference import (
    EligibleStoreEvent,
    crash_breaks,
    crash_probability_per_slice,
    event_breaks,
    poc_reference,
    reference_mean_crash_probability,
    reference_mean_event_fault_probability,
    sample_crash,
    sample_fault,
)
from voltlab import processor
from voltlab import rng as vrng
from voltlab.errors import (
    AbortedByCrash,
    InvariantError,
    NoWindowFound,
    SchemaError,
    UnknownCoreOrPState,
)
from voltlab.msr import Record
from voltlab.orchestrator import run_campaign
from voltlab.processor import (
    SCENARIOS,
    BitFlipPattern,
    CrashKind,
    ProcessorProfile,
    VoltageRegion,
    bundled_profile_names,
    classify_voltage,
    crash_kind_weights,
    draw_crash_kind,
    draw_flip_masks,
    draw_flip_pattern,
    event_fault_probability,
    load_profile,
    normalize_pstate,
    region_boundaries_mv,
)
from voltlab.victims import (
    PAYLOADS,
    STRESSORS,
    PlatformState,
    StressorSpec,
    run_probe_victim,
)

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


# -- loading and validation -------------------------------------------------


def test_bundled_profiles_present():
    assert bundled_profile_names() == ["i7-7700", "i7-7700k", "i7-8700k"]


@pytest.mark.parametrize("name", ["i7-7700K", "i7-7700k", "I7-8700K", "i7-7700"])
def test_load_by_name_case_insensitive(name):
    prof = load_profile(name)
    assert prof.physical_cores in (4, 6)
    assert load_profile(name.lower()) is prof  # loaded once per process


def test_profiles_compare_and_pickle_by_document(kaby):
    # A pinned `PlatformState` holds its profile, and records pickle and
    # compare by their fields.
    clone = pickle.loads(pickle.dumps(kaby))
    assert clone is not kaby and clone == kaby and hash(clone) == hash(kaby)
    assert clone.pstate_point("0x1b") == kaby.pstate_point("0x1b")
    assert load_profile("i7-7700k") == kaby != load_profile("i7-7700")


def test_load_by_path(tmp_path, kaby):
    res = __import__("importlib.resources", fromlist=["files"]).files("voltlab")
    text = res.joinpath("data/profiles/i7-7700k.json").read_text()
    p = tmp_path / "copy.json"
    p.write_text(text)
    prof = load_profile(p)
    assert prof.name == kaby.name


def test_unknown_bundled_name():
    # Refused on every call: a refusal is never cached.
    cached = processor._bundled_profile.cache_info().currsize
    for _ in range(3):
        with pytest.raises(SchemaError, match="no bundled profile named 'i9-9999x'"):
            load_profile("i9-9999X")
    assert processor._bundled_profile.cache_info().currsize == cached


def _writable_parts(value, where: str) -> list[str]:
    """Where `value` holds a container that can be written in place."""
    if isinstance(value, np.ndarray):
        return [where] if value.flags.writeable else []
    if isinstance(value, (dict, list, set, bytearray)):
        return [where]
    if isinstance(value, MappingProxyType):
        return [p for k, v in value.items() for p in _writable_parts(v, f"{where}[{k!r}]")]
    if isinstance(value, tuple):  # a NamedTuple too
        return [p for i, v in enumerate(value) for p in _writable_parts(v, f"{where}[{i}]")]
    if isinstance(value, Record):
        return [
            p for name in value.__slots__
            for p in _writable_parts(getattr(value, name), f"{where}.{name}")
        ]
    return []


@pytest.mark.parametrize("name", bundled_profile_names())
def test_every_part_of_a_loaded_profile_is_read_only(name):
    # A bundled profile is shared by every caller in the process, so no
    # caller may write into it.
    profile = load_profile(name)
    assert [p for k, v in vars(profile).items() for p in _writable_parts(v, k)] == []
    # The tables are tuples of floats: byte_affinity, multiplicity and
    # _bit_weights per core, and each core's flip CDFs.
    tables = [*profile.byte_affinity, *profile.multiplicity, *profile._bit_weights]
    for mult_cdf, bit_cdf, _ in profile._flip_tables:
        tables += [mult_cdf, bit_cdf]
    for table in tables:
        assert type(table) is tuple and all(type(x) is float for x in table)
    for mapping in (profile.pstates, profile.calibration, profile._raw, profile._raw["pstates"]):
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
    with pytest.raises(TypeError):
        profile._raw["byte_affinity"][0][0] = 0.5
    assert pickle.loads(pickle.dumps(profile)) == profile


def test_a_profile_keeps_its_own_copy_of_the_document():
    raw = _raw_profile()
    profile = ProcessorProfile(raw)
    raw["model_name"] = "edited after the build"
    raw["pstates"].clear()
    raw["byte_affinity"][0][0] = 0.5
    assert profile == ProcessorProfile(_raw_profile()) == load_profile("i7-7700k")
    assert pickle.loads(pickle.dumps(profile)).name == profile.name != raw["model_name"]


def test_a_profile_path_is_read_on_every_call(tmp_path):
    raw = _raw_profile()
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    first = load_profile(path)
    assert load_profile(path) is not first
    assert first == load_profile(str(path)) == load_profile("i7-7700k")
    raw["model_name"] = "edited between loads"
    path.write_text(json.dumps(raw))
    assert load_profile(path).name == "edited between loads"
    assert first.name == load_profile("i7-7700k").name != "edited between loads"


def _raw_profile(name="i7-7700k"):
    res = __import__("importlib.resources", fromlist=["files"]).files("voltlab")
    return json.loads(res.joinpath(f"data/profiles/{name}.json").read_text())


def test_missing_field_is_schema_error():
    raw = _raw_profile()
    del raw["noise_mv"]
    with pytest.raises(SchemaError):
        ProcessorProfile(raw)


@pytest.mark.parametrize("scenario", ["probe", "poc", "hmac_32b", "hmac_1kb"])
def test_a_profile_without_a_read_scenario_is_refused_at_load(scenario):
    raw = _raw_profile()
    del raw["calibration"][scenario]
    with pytest.raises(SchemaError, match=f"missing field calibration.{scenario}$"):
        ProcessorProfile(raw, "edited")


def test_the_runners_read_exactly_the_required_scenarios(monkeypatch):
    # Phase 1 and the probe read "probe", and each campaign its victim's
    # scenario; the loader requires just those.
    read = set()
    entry = ProcessorProfile.calibration_entry

    def recording(profile, scenario):
        read.add(scenario)
        return entry(profile, scenario)

    monkeypatch.setattr(ProcessorProfile, "calibration_entry", recording)
    profile = load_profile("i7-7700k")
    for victim in ("poc", *PAYLOADS):
        run_campaign(profile, victim, 1, "listing2", seed=7, runs=1, tries_per_run=10)
    run_probe_victim(PlatformState(profile, "0x1b", 1, -240), 10)
    payloads = {scenario for scenario, _, _ in PAYLOADS.values()}
    assert read == set(SCENARIOS) == {"probe", "poc"} | payloads


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


def _parent(raw, path):
    """The container that holds the last key of `path`, and that key."""
    *parents, last = path
    for key in parents:
        raw = raw[key]
    return raw, last


@pytest.mark.parametrize(
    "path, value, error, message",
    [
        (("ambient_temp_c",), None, SchemaError, "ambient_temp_c must be a number"),
        (("noise_mv",), True, SchemaError, "noise_mv must be a number"),
        (("noise_mv",), "x", SchemaError, "noise_mv must be a number"),
        (("crash",), [], SchemaError, "crash must be an object"),
        (("model_name",), 7, SchemaError, "model_name must be a string"),
        (("calibration", "poc", "pstate_gated"), 1, SchemaError,
         "calibration.poc.pstate_gated must be true or false"),
        (("pstates", "0x1b", "fault_voltage_v"), [0.7], SchemaError,
         "pstates.0x1b.fault_voltage_v must list 4 entries"),
        (("byte_affinity", 2), {}, SchemaError, r"byte_affinity\[2\] must be a list"),
        (("multiplicity",), [[1.0, 0.0, 0.0]], SchemaError, "multiplicity must list 4 entries"),
        (("multiplicity", 1, 2), "0", SchemaError, r"multiplicity\[1\]\[2\] must be a number"),
        (("pstates", "zz"), {}, SchemaError, "pstates: pstate 'zz' is not a hex ratio"),
        (("ambient_temp_c",), -1e308, InvariantError, "ambient_temp_c must be a finite number"),
        (("crash", "depth_slope_per_mv"), -0.5, InvariantError,
         "crash.depth_slope_per_mv must be a finite number in 0.0..=1000.0, not -0.5"),
        (("pstates", "0x20", "exploit_factor"), 2**70, InvariantError,
         "pstates.0x20.exploit_factor must be a finite number in 0.0..=1.0"),
        (("calibration", "probe", "p_event_max", 3), float("nan"), InvariantError,
         r"calibration.probe.p_event_max\[3\] must be a finite number"),
        (("base_clock_mhz",), 0, InvariantError,
         "base_clock_mhz must be a whole number in 1..=10000"),
        (("corrected_log_rate_per_slice",), 1.5, InvariantError,
         "corrected_log_rate_per_slice must be a finite number in 0.0..=1.0, not 1.5"),
    ],
    ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_field_contract_names_the_field(path, value, error, message):
    raw = _raw_profile()
    node, key = _parent(raw, path)
    node[key] = value
    with pytest.raises(error, match=message):
        ProcessorProfile(raw, "edited")


@pytest.mark.parametrize(
    "path", [("crash", "rate_per_slice"), ("pstates", "0x1b", "exploit_factor")]
)
def test_missing_nested_field_names_its_path(path):
    raw = _raw_profile()
    node, key = _parent(raw, path)
    del node[key]
    with pytest.raises(SchemaError, match=f"missing field {'.'.join(path)}$"):
        ProcessorProfile(raw, "edited")


@pytest.mark.parametrize("raw", [[], "profile", None, 1])
def test_a_profile_is_a_json_object(raw):
    with pytest.raises(SchemaError, match="a profile is a JSON object"):
        ProcessorProfile(raw)


def test_non_utf8_profile_file_is_a_schema_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"model_name": "i7-7700K \xe9"}')
    with pytest.raises(SchemaError, match="not UTF-8 text"):
        load_profile(path)


# Leaves and containers of a bundled profile are deleted, replaced with a
# value of any JSON type, or (numbers) scaled.  A profile either is refused
# at load with a SchemaError or InvariantError, or runs: a short campaign
# for each victim completes, finds no window or crashes, and nothing else.
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.floats(0, 2), max_size=4),
    st.dictionaries(st.text(max_size=3), st.floats(0, 1), max_size=2),
)


def _json_paths(node, path=()):
    """Every path in a JSON value: the root, each container and each leaf."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _json_paths(child, path + (key,))


class _Scripted:
    """Stands in for `st.data()` in an explicit example: each `draw`
    returns the next scripted value."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy, label=None):
        return next(self._values)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(bundled_profile_names()), st.data())
# A subnormal per-event ceiling on core 0: phase 1's geometric draws once
# overflowed to an OverflowError here instead of ending in NoWindowFound.
@example("i7-8700k", _Scripted(
    1, ("calibration", "probe", "p_event_max", 0), "scale", 2.225073858507203e-309
))
# A scenario a campaign reads is missing: this once loaded, then failed
# the campaign with UnknownCoreOrPState.
@example("i7-7700k", _Scripted(1, ("calibration", "poc"), "delete"))
# A machine that never crashes: phase 1 once planned the mailbox's -1024 mV
# limit, off its 5 mV grid, and raised InvariantError.
@example("i7-7700", _Scripted(1, ("crash", "rate_per_slice"), "scale", 0.0))
def test_fuzzed_profiles_are_refused_at_load_or_run(name, data):
    raw = _raw_profile(name)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(list(_json_paths(raw))), label="path")
        how = data.draw(st.sampled_from(["delete", "replace", "scale", "scale"]), label="how")
        if not path:
            raw = data.draw(_JSON_VALUES, label="root")
            continue
        node, key = _parent(raw, path)
        old = node[key]
        if how == "delete":
            del node[key]
        elif how == "scale" and type(old) in (int, float):
            node[key] = old * data.draw(st.floats(0, 2), label="factor")
        else:
            node[key] = data.draw(_JSON_VALUES, label="value")
    try:
        profile = ProcessorProfile(raw, "fuzzed")
    except (SchemaError, InvariantError):
        event("refused")
        return
    event("loaded")
    for victim in ("poc", "hmac32"):
        try:
            run_campaign(profile, victim, 1, "listing2", seed=7, runs=1, tries_per_run=100)
        except (NoWindowFound, AbortedByCrash):
            pass


def test_bundled_profiles_match_the_build_script():
    # The JSON files are generated; an edit to one of them alone would be
    # lost on the next regeneration.  `main()` writes files, so the script's
    # tables are serialised here the way it does.
    script = pathlib.Path(__file__).resolve().parent.parent / "tools" / "build_profiles.py"
    spec = importlib.util.spec_from_file_location("build_profiles", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sorted(module.PROFILES) == bundled_profile_names()
    # The script restates simulator values; they must agree with it.
    assert module.SHIFT_LOOP_MULT == STRESSORS["shift_loop"].fault_multiplier
    events = {scenario: count for scenario, _, count in PAYLOADS.values()}
    assert module.EVENTS == {"poc": poc_reference().events, **events}
    res = __import__("importlib.resources", fromlist=["files"]).files("voltlab")
    for stem, profile in module.PROFILES.items():
        text = json.dumps(profile, indent=2, sort_keys=True) + "\n"
        assert text == res.joinpath(f"data/profiles/{stem}.json").read_text(encoding="utf-8"), stem


@pytest.mark.parametrize("form", ["0x1b", "0x1B", "1b", 27])
def test_normalize_pstate_forms(form):
    assert normalize_pstate(form) == "0x1b"


def test_normalize_pstate_range():
    with pytest.raises(UnknownCoreOrPState):
        normalize_pstate(0)
    with pytest.raises(UnknownCoreOrPState):
        normalize_pstate(256)


@pytest.mark.parametrize("form", [27.0, np.int64(27), np.float64(27.0)])
def test_normalize_pstate_whole_numbers(form):
    assert normalize_pstate(form) == "0x1b"


@pytest.mark.parametrize("form", [float("inf"), float("nan"), 27.5, True, None])
def test_normalize_pstate_refuses_what_is_not_a_whole_number(form):
    with pytest.raises(UnknownCoreOrPState, match="not a whole number"):
        normalize_pstate(form)


@pytest.mark.parametrize("form", ["zz", "", "0x"])
def test_normalize_pstate_refuses_what_is_not_hex(form):
    with pytest.raises(UnknownCoreOrPState, match="is not a hex ratio"):
        normalize_pstate(form)


@pytest.mark.parametrize(
    "form, key",
    [("0x1b", "0x1b"), ("0x1B", "0x1b"), (27, "0x1b"), (0, None), (256, None), ("0x55", None)],
)
def test_pstate_point_normalises_only_on_a_miss(kaby, monkeypatch, form, key):
    calls = []
    monkeypatch.setattr(
        processor, "normalize_pstate", lambda p: calls.append(p) or normalize_pstate(p)
    )
    if key is None:
        with pytest.raises(UnknownCoreOrPState):
            kaby.pstate_point(form)
    else:
        assert kaby.pstate_point(form) is kaby.pstates[key]
    # A canonical key is found as given; any other form is normalised.
    assert calls == ([] if form == key else [form])


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
    assert region_boundaries_mv(kaby, 0, "0x08", 42.0)[1] == pytest.approx(542.0)


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
    # 950 -> 700 mV; core 1 top is 710+0.6 at the shift stressor's 40 C.
    state = PlatformState(kaby, "0x1b", 1, -250, STRESSORS["shift_loop"])
    assert state.temp_c == 40.0
    gen = vrng.stream(7, "fault-rate")
    event = EligibleStoreEvent("poc", word_index=3)
    hits = sum(sample_fault(state, event, gen) is not None for _ in range(4000))
    # q = 0.99 by calibration; 3 sigma of 4000 draws is ~19.
    assert abs(hits - 0.99 * 4000) < 25


def test_sample_fault_silent_above_window(kaby):
    state = PlatformState(kaby, "0x1b", 1)
    gen = vrng.stream(8, "quiet")
    event = EligibleStoreEvent("poc", word_index=0)
    assert all(sample_fault(state, event, gen) is None for _ in range(2000))


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
    # against the dense grid.  Core 1's unit ceiling is 0.04, so these are
    # ceilings of 40 and of 3, with the clamp's corner at 709.81 and 707.5 mV.
    for multiplier, v in ((1000.0, 699.0), (75.0, 708.0)):
        closed = mean_event_fault_probability(kaby, 1, "0x1b", "poc", multiplier, v, 37.0)
        dense = numeric_mean(
            lambda x: event_fault_probability(kaby, 1, "0x1b", "poc", multiplier, x, 37.0),
            v,
            kaby.noise_mv,
        )
        assert closed == pytest.approx(dense, abs=2e-5), multiplier


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


def _bands(breaks, n: float, meets) -> list[tuple[float, int]]:
    """(nominal voltage, pieces) of noise bands of half-width `n` that meet
    the region `meets(lo, hi)` names, weighted toward bands holding several
    breakpoints: for each run of distinct breakpoints that one band can
    hold, points across the voltages whose band holds them all, more the
    longer the run."""
    bends = sorted(set(breaks))
    out = []
    for i, first in enumerate(bends):
        for j in range(i, len(bends)):
            if bends[j] - first >= 2.0 * n:
                break
            lo, hi = bends[j] - n, first + n
            m = (3, 8, 24)[min(j - i, 2)]
            for v in (lo + (hi - lo) * (k + 0.5) / m for k in range(m)):
                if meets(v - n, v + n):
                    out.append((v, 1 + sum(v - n < b < v + n for b in bends)))
    return out


def test_marginals_match_the_piecewise_oracle_bit_for_bit():
    # Each marginal is the general piecewise integral of its pointwise
    # model, summed in the same order, to the last bit: a reordered sum can
    # round differently and so move a draw.  Summed in reverse, about one
    # four-piece band in nine and one three-piece band in a thousand change
    # their bits, and no band of fewer pieces, so the grid leans on bands
    # of several pieces.
    pieces = Counter()
    for name in bundled_profile_names():
        profile = load_profile(name)
        n = profile.noise_mv
        for pstate, core, temp in itertools.product(
            profile.pstates, range(profile.physical_cores), (30.0, 45.5)
        ):
            _, top, floor = region_boundaries_mv(profile, core, pstate, temp)
            for v, _ in _bands(crash_breaks(profile, core, pstate, temp), n,
                               lambda lo, hi: lo <= floor):
                got = processor.mean_crash_probability(profile, core, pstate, v, temp)
                want = reference_mean_crash_probability(profile, core, pstate, v, temp)
                assert got.hex() == want.hex(), (name, pstate, core, temp, v)
            for scenario, multiplier in itertools.product(SCENARIOS, (1.0, 2.0, 24.75, 1000.0)):
                args = (profile, core, pstate, scenario, multiplier)
                _, breaks = event_breaks(*args, temp)
                for v, k in _bands(breaks, n, lambda lo, hi: lo < top and hi > floor):
                    got = processor.mean_event_fault_probability(*args, v, temp)
                    want = reference_mean_event_fault_probability(*args, v, temp)
                    assert got.hex() == want.hex(), (name, pstate, core, scenario, multiplier, v)
                    pieces[k] += 1
    assert pieces[4] > 1000 and pieces[3] > 1000, pieces


def test_mean_crash_probability_zero_above_floor(kaby):
    from voltlab.processor import mean_crash_probability

    # Core 1 floor at reference temp: 710 - 15 = 695 mV; the noise band
    # bottoms out above it from 697.5 mV up.
    assert mean_crash_probability(kaby, 1, "0x1b", 697.6, 37.0) == 0.0
    assert mean_crash_probability(kaby, 1, "0x1b", 697.0, 37.0) > 0.0


# -- flip patterns ---------------------------------------------------------------


def test_flip_pattern_invariants():
    for bad in (0, -1, 1 << 128):
        with pytest.raises(InvariantError):
            BitFlipPattern(0, bad)
    pat = BitFlipPattern(2, (1 << 5) | (1 << 17))
    assert pat.flipped_bits == {5, 17}
    assert pat.byte_positions == {0, 2}
    assert pat.multiplicity == 2
    top = BitFlipPattern(0, 1 << 127)
    assert (top.byte_positions, top.multiplicity) == ({15}, 1)
    full = BitFlipPattern(0, (1 << 128) - 1)
    assert (full.byte_positions, full.multiplicity) == (set(range(16)), 128)
    # The derived views against a plain loop over the mask's bits.
    gen = random.Random(5)
    for _ in range(300):
        mask = gen.getrandbits(gen.randint(1, 128)) or 1
        bits = {b for b in range(128) if mask >> b & 1}
        pat = BitFlipPattern(0, mask)
        assert pat.flipped_bits == bits
        assert pat.byte_positions == {b // 8 for b in bits}
        assert pat.multiplicity == len(bits)


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


# -- flip draws against their distribution ---------------------------------------

# Each test below passes at this level.  The seeds are fixed, so a verdict
# is reproducible; a change to the draws redraws every sample.
ALPHA = 1e-4

_CORES = [
    (name, core)
    for name in bundled_profile_names()
    for core in range(load_profile(name).physical_cores)
]


def _counts(masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(patterns per bit count 0..7, flips per bit, one-bit patterns per bit)."""
    halves = np.array(
        [(m & 0xFFFF_FFFF_FFFF_FFFF, m >> 64) for m in masks], dtype=np.uint64
    ).reshape(-1, 2)
    bits = np.unpackbits(halves.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    mult = bits.sum(axis=1)
    return np.bincount(mult, minlength=8), bits.sum(axis=0), bits[mult == 1].sum(axis=0)


@functools.cache
def _flip_counts(name, core):
    """`_counts` of 30 000 masks from one `draw_flip_masks` block and of
    1 500 `Generator.choice` patterns, on one core."""
    profile = load_profile(name)
    ours = draw_flip_masks(profile, core, 30_000, vrng.stream(29, "flip-dist", name, core))
    gen = numpy_stream(31, "flip-oracle", name, core)
    theirs = [reference_flip_pattern(profile, core, 0, gen).mask for _ in range(1_500)]
    return _counts(ours), _counts(theirs)


def _multiplicity_pmf(profile, core) -> np.ndarray:
    """P(k bits flip), k = 0..7, from the core's multiplicity row."""
    mult = profile.multiplicity[core]
    cap = int(np.count_nonzero(profile.bit_weights(core)))
    pmf = np.zeros(8)
    pmf[min(1, cap)] += mult[0]
    pmf[min(2, cap)] += mult[1]
    for extra in range(5):
        pmf[min(3 + extra, cap)] += mult[2] * binom.pmf(extra, 4, 0.2)
    return pmf


@pytest.mark.parametrize("name,core", _CORES)
def test_flip_multiplicity_matches_the_choice_oracle(name, core):
    (ours, _, _), (theirs, _, _) = _flip_counts(name, core)
    assert two_sample_p(ours, theirs) > ALPHA
    # The large sample alone, against the table: this is where a pattern
    # that lost a repeated bit shows.
    assert goodness_of_fit_p(ours, _multiplicity_pmf(load_profile(name), core)) > ALPHA


@pytest.mark.parametrize("name,core", _CORES)
def test_flipped_bits_match_the_choice_oracle(name, core):
    (_, ours, _), (_, theirs, _) = _flip_counts(name, core)
    assert two_sample_p(ours, theirs) > ALPHA


@pytest.mark.parametrize("name,core", _CORES)
def test_one_bit_flips_follow_the_bit_weights(name, core):
    (_, _, single), _ = _flip_counts(name, core)
    assert goodness_of_fit_p(single, load_profile(name).bit_weights(core)) > ALPHA


_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def _flip_tables(draw):
    """(affinity row, multiplicity row) for one core."""
    shape = draw(st.sampled_from(["general", "sparse", "dominant"]))
    if shape == "general":
        affinity = draw(st.lists(_WEIGHT, min_size=16, max_size=16).filter(any))
        mult = draw(st.lists(_WEIGHT, min_size=3, max_size=3).filter(any))
    else:
        # One or two bytes carry (almost) all the weight, so a 3+ bit
        # pattern lands on the same bits twice and rejects repeats.
        heavy = draw(st.lists(st.integers(0, 15), min_size=1, max_size=2, unique=True))
        light = 0.0 if shape == "sparse" else draw(st.floats(1e-6, 1e-2))
        affinity = [1000.0 if b in heavy else light for b in range(16)]
        mult = draw(st.lists(_WEIGHT, min_size=3, max_size=3))
        mult[2] = sum(mult) + 1.0  # at least half the patterns take 3+ bits
    total = sum(mult)
    return affinity, [m / total for m in mult]


@settings(max_examples=40, deadline=None)
@given(_flip_tables(), st.integers(0, 2**32 - 1), st.integers(0, 300))
def test_flip_masks_on_random_tables_stay_on_the_table(tables, seed, n):
    affinity, mult = tables
    raw = _raw_profile()
    raw["byte_affinity"][1] = affinity
    raw["multiplicity"][1] = mult
    profile = ProcessorProfile(raw)
    masks = draw_flip_masks(profile, 1, n, vrng.stream(seed, "flips"))
    assert len(masks) == n
    live = sum(1 << b for b in np.flatnonzero(profile.bit_weights(1)).tolist())
    possible = {k for k, p in enumerate(_multiplicity_pmf(profile, 1)) if p > 0}
    for mask in masks:
        assert mask & ~live == 0
        assert mask.bit_count() in possible
    # The same stream gives the same block, and a pattern is a block of one.
    assert draw_flip_masks(profile, 1, n, vrng.stream(seed, "flips")) == masks
    (one,) = draw_flip_masks(profile, 1, 1, vrng.stream(seed, "flips"))
    pattern = draw_flip_pattern(profile, 1, 4, vrng.stream(seed, "flips"))
    assert pattern.mask == one and pattern.word_index == 4


def _histograms(pairs):
    """(flips per byte, patterns per bit count) of `(mask, count)` pairs,
    as the probe folds its faults."""
    byte_hist, mult_hist = [0] * 16, Counter()
    for mask, n in pairs:
        for b in BitFlipPattern(0, mask).byte_positions:
            byte_hist[b] += n
        mult_hist[mask.bit_count()] += n
    return byte_hist, mult_hist


@pytest.mark.parametrize("n", [0, 1, 2, 7, 5_000])
@pytest.mark.parametrize("name,core", _CORES)
def test_flip_mask_counts_tally_the_listed_block(name, core, n):
    # The probe tallies one `draw_flip_masks` block with `Counter`: the
    # tally holds every listed mask as an int key, folds to the histograms
    # the list folds to one mask at a time, and the same stream gives it
    # again and leaves off at the same place.
    profile = load_profile(name)
    listed, again = vrng.stream(11 + n, "flips", core), vrng.stream(11 + n, "flips", core)
    masks = draw_flip_masks(profile, core, n, listed)
    counts = Counter(masks)
    assert sum(counts.values()) == n
    assert all(type(mask) is int and mask > 0 and c > 0 for mask, c in counts.items())
    assert _histograms(counts.items()) == _histograms((mask, 1) for mask in masks)
    assert Counter(draw_flip_masks(profile, core, n, again)) == counts
    assert again.random() == listed.random()


# -- flip draws against `Generator.choice`, uniform for uniform ---------------
#
# These draw from numpy generators, which the flip draws take in place of an
# `rng.stream`, so a test can set and peek the uniforms.  A flip draw reads
# each pattern's bucket and first bit off one uniform each, through the CDF
# `choice` builds and its `side="right"` bisection, so from the same
# uniform it picks what `choice` picks.  A pattern drawn
# on its own reads its uniforms in `choice`'s order as well: where `choice`
# takes one round (one bit, or two bits whose draws differ), the two agree
# word for word.  Only the repeats and the 3+ bit patterns part ways, and
# there the tests above hold them to one distribution.


def _next_words(seed, words):
    """A numpy Philox generator whose next four words are `words`."""
    gen = numpy_stream(seed, "ties")
    state = gen.bit_generator.state
    state["buffer"] = np.array(words, dtype=np.uint64)
    state["buffer_pos"] = 0
    state["has_uint32"], state["uinteger"] = 0, 0
    gen.bit_generator.state = state
    return gen


def _next_uniforms(seed, uniforms):
    """A numpy Philox generator whose next four uniforms are `uniforms`
    (multiples of 2**-53)."""
    return _next_words(seed, [int(u * 2**53) << 11 for u in uniforms])


def _peek(gen, shape):
    """The next uniforms of `gen` in `shape`, leaving `gen` where it was."""
    twin = np.random.Generator(type(gen.bit_generator)())
    twin.bit_generator.state = gen.bit_generator.state
    return twin.random(shape)


def _choice_pick(p, u):
    """The index `Generator.choice(len(p), p=p)` picks from the uniform `u`."""
    return int(_next_uniforms(0, [u, 0.0, 0.0, 0.0]).choice(len(p), p=p))


def _bit_counts(profile, core, bucket):
    """The bit counts a pattern of multiplicity `bucket` can have on `core`."""
    reach = int(np.count_nonzero(profile.bit_weights(core)))
    return {min(k, reach) for k in ((1,), (2,), range(3, 8))[bucket]}


def _single_draw_matches_choice(profile, core, *key):
    """One `draw_flip_pattern` and one `reference_flip_pattern` from the
    stream `key`.  Both keep `choice`'s bucket and its first bit; where
    `choice` takes one round the patterns and the final stream states are
    equal.  Returns the bit count of an equal pattern, else 0."""
    ours, theirs = numpy_stream(*key), numpy_stream(*key)
    u_bucket, u_first, u_second = _peek(ours, 3)
    weights = profile.bit_weights(core)
    bucket = _choice_pick(profile.multiplicity[core], u_bucket)
    pattern = draw_flip_pattern(profile, core, 3, ours)
    reference = reference_flip_pattern(profile, core, 3, theirs)
    assert len(pattern.flipped_bits) in _bit_counts(profile, core, bucket)
    if bucket == 2:  # `binomial(4, 0.2)` comes before the bits in `choice`'s order
        return 0
    first = _choice_pick(weights, u_first)
    assert first in pattern.flipped_bits
    if bucket == 1 and _choice_pick(weights, u_second) == first:
        return 0  # `choice` draws a second round, the flip draw rejects the repeat
    assert pattern == reference
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    return len(pattern.flipped_bits)


def _table_profile(tables):
    affinity, mult = tables
    raw = _raw_profile()
    raw["byte_affinity"][1] = affinity
    raw["multiplicity"][1] = mult
    return ProcessorProfile(raw)


@pytest.mark.parametrize("name", bundled_profile_names())
def test_flip_draws_replay_choice_on_bundled_profiles(name):
    profile = load_profile(name)
    agreed = [
        _single_draw_matches_choice(profile, core, seed, "flips")
        for core in range(profile.physical_cores)
        for seed in range(150)
    ]
    assert agreed.count(1) > 0 and agreed.count(2) > 0


@settings(max_examples=60, deadline=None)
@given(_flip_tables(), st.integers(0, 2**32 - 1))
def test_flip_draws_replay_choice_on_random_tables(tables, seed):
    profile = _table_profile(tables)
    for i in range(10):
        _single_draw_matches_choice(profile, 1, seed, "flips", i)


def _block_matches_choice(profile, core, gen, n):
    """One `draw_flip_masks` block of `n` on `gen`: each pattern holds the
    bit `choice` picks from its uniform in the second row and has a bit
    count of the bucket `choice` picks from its uniform in the first."""
    u = _peek(gen, (2, n))
    masks = draw_flip_masks(profile, core, n, gen)
    assert len(masks) == n
    for mask, u_bucket, u_first in zip(masks, *u.tolist()):
        bucket = _choice_pick(profile.multiplicity[core], u_bucket)
        assert mask.bit_count() in _bit_counts(profile, core, bucket)
        assert mask >> _choice_pick(profile.bit_weights(core), u_first) & 1
    return masks


@pytest.mark.parametrize("name", bundled_profile_names())
def test_flip_blocks_replay_choice_on_bundled_profiles(name):
    profile = load_profile(name)
    for core in range(profile.physical_cores):
        gen = numpy_stream(2, "flips", core)
        masks = [m for n in (0, 1, 2, 7, 500) for m in _block_matches_choice(profile, core, gen, n)]
        assert any(mask.bit_count() > 1 for mask in masks)


@settings(max_examples=25, deadline=None)
@given(_flip_tables(), st.integers(0, 2**32 - 1), st.integers(1, 64))
def test_flip_blocks_replay_choice_on_random_tables(tables, seed, block):
    # Small blocks back to back: each block's rows start where the walk of
    # the block before it stopped.
    profile = _table_profile(tables)
    gen = numpy_stream(seed, "flips")
    for start in range(0, 300, block):
        _block_matches_choice(profile, 1, gen, min(block, 300 - start))


def test_flip_draws_break_cdf_ties_like_choice():
    # `choice` bisects with side="right": a uniform equal to a CDF entry
    # takes the index above it.  Bucket CDF (0.5, 0.75, 1); bit CDF k/16
    # over bits 0..15, so 0.5 closes bit 7 and 0.625 closes bit 9.
    raw = _raw_profile()
    raw["multiplicity"][1] = [0.5, 0.25, 0.25]
    raw["byte_affinity"][1] = [1.0, 1.0] + [0.0] * 14
    profile = ProcessorProfile(raw)
    cases = [
        # Bucket 0 at 0.25, then the tie 0.5: bit 8.
        ((0.25, 0.5, 0.5, 0.5), {8}),
        # The tie 0.5: bucket 1, bit 8, bit 8 again (rejected), then the
        # tie 0.625: bit 10.  `choice` spends the same four uniforms: its
        # second round, over the fifteen bits left, lands on bit 10 too.
        ((0.5, 0.5, 0.5, 0.625), {8, 10}),
    ]
    for uniforms, bits in cases:
        ours, theirs = _next_uniforms(19, uniforms), _next_uniforms(19, uniforms)
        assert draw_flip_pattern(profile, 1, 2, ours).flipped_bits == bits
        assert reference_flip_pattern(profile, 1, 2, theirs).flipped_bits == bits
        np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    # A block of two reads the ties in both rows: buckets 1 and 0 from
    # (0.5, 0.25), first bits 8 and 8 from (0.5, 0.5).
    first, second = draw_flip_masks(profile, 1, 2, _next_uniforms(19, (0.5, 0.25, 0.5, 0.5)))
    assert first >> 8 & 1 and first.bit_count() == 2
    assert second == 1 << 8


_BUNDLED_RATIOS = sorted(
    {
        profile.pstate_point(pstate).ratio
        for profile in map(load_profile, bundled_profile_names())
        for pstate in profile.pstates
    }
)


@pytest.mark.parametrize("ratio", _BUNDLED_RATIOS)
def test_crash_kind_draw_replays_choice(ratio):
    ours, theirs = numpy_stream(16, "kind"), numpy_stream(16, "kind")
    for _ in range(500):
        expected = CrashKind(int(theirs.choice(3, p=crash_kind_weights(ratio))))
        assert draw_crash_kind(ratio, ours) == expected
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    # The draw reads a CDF built once per ratio, equal to the one `choice` builds.
    cdf = processor._crash_kind_cdf(ratio)
    assert isinstance(cdf, tuple) and processor._crash_kind_cdf(ratio) is cdf
    assert cdf == tuple(processor._cdf(crash_kind_weights(ratio)))


# -- crash process ---------------------------------------------------------------


def test_no_crash_inside_window(kaby):
    state = PlatformState(kaby, "0x1b", 1, -245)  # 705 mV, well above core 1 instability at 695
    assert state.temp_c == 37.0
    gen = vrng.stream(13, "stable")
    assert all(sample_crash(state, gen) is None for _ in range(4000))


def test_crash_rate_grows_with_depth(kaby):
    gen = vrng.stream(14, "depth")
    point = kaby.pstate_point("0x1b")
    state = PlatformState(kaby, "0x1b", 1)
    shallow = sum(sample_crash(state, gen, v_eff_mv=694.0) is not None for _ in range(3000))
    deep = sum(sample_crash(state, gen, v_eff_mv=680.0) is not None for _ in range(3000))
    assert shallow < deep
    # Closed form at 0x1b (ratio 27): rate * (1 + 0.4 * depth) * (0.5 + 27/64).
    expected = crash_probability_per_slice(kaby, point.ratio, 695.0 - 680.0)
    assert abs(deep / 3000 - expected) < 0.02
    assert expected == pytest.approx(0.02 * 7.0 * (0.5 + 0.5 * 27 / 32))


def test_crash_kind_depends_on_ratio(kaby):
    gen = vrng.stream(15, "kinds")
    fast = PlatformState(kaby, "0x2a", 0)
    slow = PlatformState(kaby, "0x08", 0)
    assert (fast.temp_c, slow.temp_c) == (50.0, 32.0)

    def kinds(state, floor_mv, n=600):
        out = []
        while len(out) < n:
            k = sample_crash(state, gen, v_eff_mv=floor_mv - 30.0)
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
        assert sum(w) == pytest.approx(1.0)
        assert all(x > 0 for x in w)


# -- platform state ------------------------------------------------------------------


def test_state_topology_helpers(kaby):
    state = PlatformState(kaby, 27, 2)
    assert (state.pstate, state.core) == ("0x1b", 2)
    assert state.nominal_voltage_mv() == pytest.approx(950.0)
    assert PlatformState(kaby, "0x1b", 2, -230).nominal_voltage_mv() == pytest.approx(720.0)


def test_state_rejects_weak_multiplier():
    with pytest.raises(InvariantError):
        StressorSpec("weak", 0.5, 0.0)
