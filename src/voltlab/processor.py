"""Calibrated multi-core fault model.

A ProcessorProfile carries, per (core, pstate), the voltage where silent
SIMD faults begin (the window top), how wide the exploitable band under it
is, and per-scenario probabilities that an eligible vector store actually
corrupts data once the supply sits inside that band.  The physics here reads
only a profile, a core, a pstate, a supply voltage and a temperature; the
pinned victim those come from is `victims.PlatformState`.

Voltage geometry, from high to low supply::

      normal
    ---------------------------- window top + corrected band
      corrected errors            (machine-check logged, data intact)
    ---------------------------- window top (shifts with temperature)
      exploit window              (silent data corruption)
    ---------------------------- window top - window width
      unstable                    (crash process takes over)

All internal arithmetic happens in millivolts; volt-valued inputs are
quantized to whole microvolts on entry so that profile constants written
with three decimals land exactly on band boundaries.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from enum import IntEnum
from functools import cache
from importlib import resources
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

from .errors import InvariantError, SchemaError, UnknownCoreOrPState
from .msr import Record
from .rng import Stream

SCHEMA_VERSION = 1

# The calibration scenarios the runners read: phase 1 and the phase-2 probe
# ("probe"), the guarded branch ("poc") and the two HMAC payloads.  A
# profile that lacks one is refused at load.
SCENARIOS = ("probe", "poc", "hmac_32b", "hmac_1kb")

# Fault manifestation ramp: zero at the window top, saturated from halfway
# down.  Calibration targets assume the saturated regime.
RAMP_SATURATION_DEPTH = 0.5

# Crash-kind weighting pivots around this ratio (2700 MHz).
_KIND_PIVOT_RATIO = 27.0


class VoltageRegion(IntEnum):
    """Supply regions in increasing severity."""

    NORMAL = 0
    CORRECTED_ERRORS = 1
    EXPLOIT_WINDOW = 2
    UNSTABLE = 3


class CrashKind(IntEnum):
    KERNEL_EXCEPTION = 0  # recoverable: logged, machine survives reboot-free
    FREEZE = 1
    HARD_CRASH = 2


def _quantize_mv(volts: float) -> float:
    """Volts -> millivolts, snapped to whole microvolts."""
    return round(volts * 1e6) / 1000.0


# Sane ranges of the profile's real-valued fields.
_TEMP_C, _WIDTH_MV, _VOLTS, _UNIT = (-273.15, 1000.0), (0.0, 1000.0), (0.0, 10.0), (0.0, 1.0)
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def _path(at: str, key) -> str:
    """The field path of `key` under `at`: dotted, with list indexes in brackets."""
    return f"{at}[{key}]" if type(key) is int else f"{at}.{key}" if at else key


class _Reader:
    """One profile's JSON, read against the field contract.

    A missing field, a wrong JSON type or a list of the wrong length raises
    `SchemaError`; a number out of its range (non-finite, or fractional
    where a whole one is due) raises `InvariantError`.  Both name the field
    by its path, which is built only for the message.
    """

    def __init__(self, origin: str):
        self.origin = origin

    def get(self, node, key, at: str = "", kind=dict):
        """`node[key]`, which must be of JSON type `kind` (None: any)."""
        try:
            value = node[key]
        except KeyError:
            raise SchemaError(f"{self.origin}: missing field {_path(at, key)}") from None
        if kind is not None and type(value) is not kind:
            raise SchemaError(f"{self.origin}: {_path(at, key)} must be {_JSON_KINDS[kind]}")
        return value

    def num(self, node, key, lo, hi, at: str = "", n: int | None = None, whole: bool = False):
        """The number `node[key]` in lo..=hi, whole if `whole`; with `n`, a
        list of `n` real numbers, checked and converted in one pass."""
        if n is None:
            return self._number(self.get(node, key, at, None), at, key, lo, hi, whole)
        if len(values := self.get(node, key, at, list)) != n:
            raise SchemaError(f"{self.origin}: {_path(at, key)} must list {n} entries")
        return [
            v if type(v) is float and lo <= v <= hi else self._number(v, _path(at, key), i, lo, hi)
            for i, v in enumerate(values)
        ]

    def table(self, node, key, rows: int, cols: int, lo, hi) -> tuple[tuple[float, ...], ...]:
        """A `rows` x `cols` list of lists of numbers in lo..=hi, as tuples."""
        if len(table := self.get(node, key, "", list)) != rows:
            raise SchemaError(f"{self.origin}: {key} must list {rows} entries")
        return tuple(tuple(self.num(table, i, lo, hi, key, cols)) for i in range(rows))

    def pstate(self, key, at: str) -> str:
        try:
            return normalize_pstate(key)
        except UnknownCoreOrPState as bad:
            raise SchemaError(f"{self.origin}: {at}: {bad}") from None

    def _number(self, value, at, key, lo, hi, whole=False):
        if type(value) is not float and type(value) is not int:  # a bool is not a number here
            raise SchemaError(f"{self.origin}: {_path(at, key)} must be a number")
        if not lo <= value <= hi or whole and value % 1:
            raise InvariantError(
                f"{self.origin}: {_path(at, key)} must be a {'whole' if whole else 'finite'} "
                f"number in {lo}..={hi}, not {value}"
            )
        return int(value) if whole else float(value)


def manifestation(depth_fraction: float) -> float:
    """Piecewise-linear ramp over normalized window depth, clamped to [0, 1]."""
    if depth_fraction <= 0.0:
        return 0.0
    if depth_fraction >= RAMP_SATURATION_DEPTH:
        return 1.0
    return depth_fraction / RAMP_SATURATION_DEPTH


class PStatePoint(Record):
    """One pstate's calibration; `fault_voltage_mv` is the window top per core."""

    __slots__ = ("ratio", "base_voltage_mv", "reference_temp_c", "exploit_window_mv",
                 "exploit_factor", "fault_voltage_mv")

    def __init__(
        self, ratio: int, base_voltage_mv: float, reference_temp_c: float,
        exploit_window_mv: float, exploit_factor: float, fault_voltage_mv: tuple[float, ...],
    ):
        self._set(ratio, base_voltage_mv, reference_temp_c, exploit_window_mv, exploit_factor,
                  fault_voltage_mv)


class CalibrationEntry(NamedTuple):
    pstate_gated: bool
    p_event_max: tuple[float, ...]  # per core


class CrashParams(NamedTuple):
    rate_per_slice: float
    depth_slope_per_mv: float


class BitFlipPattern(Record):
    """One corrupted 128-bit word: which word, and the nonzero mask of the
    bits that flipped in it (bit `b` set: bit `b` of the word flipped)."""

    __slots__ = ("word_index", "mask")

    def __init__(self, word_index: int, mask: int):
        if not 0 < mask < 1 << 128:
            raise InvariantError("a flip mask sets at least one bit, all in 0..127")
        self._set(word_index, mask)

    @property
    def flipped_bits(self) -> frozenset[int]:
        return frozenset(b for b in range(self.mask.bit_length()) if self.mask >> b & 1)

    @property
    def byte_positions(self) -> frozenset[int]:
        return frozenset(i for i, byte in enumerate(self.mask.to_bytes(16, "little")) if byte)

    @property
    def multiplicity(self) -> int:
        return self.mask.bit_count()


class ProcessorProfile:
    """Immutable calibration data for one processor model, read from the
    JSON document `raw`, of which it keeps a read-only copy.  Every table,
    mapping and document it holds is read-only, so one profile can be
    shared by all its callers (`load_profile` does).  Two profiles read from
    equal documents are equal, and a profile copies and pickles as its
    document."""

    def __init__(self, raw: dict, origin: str = "<dict>"):
        read = _Reader(origin)
        if type(raw) is not dict:
            raise SchemaError(f"{origin}: a profile is a JSON object")
        self._raw = _frozen_doc(raw)
        version = read.get(raw, "schema_version", kind=None)
        if type(version) is not int or version != SCHEMA_VERSION:
            raise SchemaError(f"{origin}: schema_version {version!r} unsupported")
        self.name: str = read.get(raw, "model_name", kind=str)
        # Upper bounds far above any real part, yet small enough that a
        # campaign can size its per-core and per-thread tables from them.
        n = self.physical_cores = read.num(raw, "physical_cores", 0, 1024, whole=True)
        self.threads_per_core = read.num(raw, "threads_per_core", 0, 8, whole=True)
        if n < 2 or self.threads_per_core < 2:
            # One whole core for the attacker, the stressor on the victim's partner.
            raise InvariantError(f"{origin}: the attack partition needs 2+ cores of 2+ threads")
        self.base_clock_mhz = read.num(raw, "base_clock_mhz", 1, 10_000, whole=True)
        self.ambient_temp_c: float = read.num(raw, "ambient_temp_c", *_TEMP_C)
        self.noise_mv: float = read.num(raw, "noise_mv", *_WIDTH_MV)
        self.temp_coeff_mv_per_c: float = read.num(raw, "temp_coeff_mv_per_c", -100.0, 100.0)
        self.corrected_band_mv: float = read.num(raw, "corrected_band_mv", *_WIDTH_MV)
        self.corrected_log_rate: float = read.num(raw, "corrected_log_rate_per_slice", *_UNIT)
        self.decode_error_rate: float = read.num(raw, "decode_error_rate_per_slice", *_UNIT)
        crash = read.get(raw, "crash")
        self.crash = CrashParams(
            read.num(crash, "rate_per_slice", *_UNIT, at="crash"),
            read.num(crash, "depth_slope_per_mv", 0.0, 1000.0, at="crash"),
        )
        points: dict[str, PStatePoint] = {}
        pstates = read.get(raw, "pstates")
        for key in pstates:
            norm = read.pstate(key, "pstates")
            entry, at = read.get(pstates, key, "pstates"), _path("pstates", key)
            base = _quantize_mv(read.num(entry, "base_voltage_v", *_VOLTS, at=at))
            volts = read.num(entry, "fault_voltage_v", *_VOLTS, at=at, n=n)
            faults = tuple(map(_quantize_mv, volts))
            for core, fault_mv in enumerate(faults):
                if fault_mv >= base:
                    raise InvariantError(f"{origin}: {at} core {core} fault voltage "
                                         f"{fault_mv} mV not below base {base} mV")
            points[norm] = PStatePoint(
                ratio=int(norm, 16),
                base_voltage_mv=base,
                reference_temp_c=read.num(entry, "reference_temp_c", *_TEMP_C, at=at),
                exploit_window_mv=read.num(entry, "exploit_window_mv", *_WIDTH_MV, at=at),
                exploit_factor=read.num(entry, "exploit_factor", *_UNIT, at=at),
                fault_voltage_mv=faults,
            )
        self.pstates: MappingProxyType[str, PStatePoint] = MappingProxyType(points)
        self.default_attack_pstate = read.pstate(
            read.get(raw, "default_attack_pstate", kind=None), "default_attack_pstate"
        )
        if self.default_attack_pstate not in self.pstates:
            raise SchemaError(f"{origin}: default attack pstate undefined")
        self.byte_affinity = read.table(raw, "byte_affinity", n, 16, 0.0, sys.float_info.max)
        if any(max(row) <= 0 for row in self.byte_affinity):
            raise InvariantError(f"{origin}: every core needs a positive affinity weight")
        self.multiplicity = read.table(raw, "multiplicity", n, 3, *_UNIT)
        # numpy's `allclose` tolerance (atol 1e-9, rtol 1e-5).
        if any(abs(sum(row) - 1.0) > 1e-9 + 1e-5 for row in self.multiplicity):
            raise InvariantError(f"{origin}: multiplicity rows must sum to 1")
        calibration: dict[str, CalibrationEntry] = {}
        scenarios = read.get(raw, "calibration")
        for scenario in dict.fromkeys((*SCENARIOS, *scenarios)):  # each of SCENARIOS, then the rest
            entry, at = read.get(scenarios, scenario, "calibration"), _path("calibration", scenario)
            calibration[scenario] = CalibrationEntry(
                read.get(entry, "pstate_gated", at, bool),
                tuple(read.num(entry, "p_event_max", *_UNIT, at=at, n=n)),
            )
        self.calibration: MappingProxyType[str, CalibrationEntry] = MappingProxyType(calibration)
        # Per-core bit weights: byte affinity spread uniformly over each
        # byte's 8 bits, normalized for sampling without replacement.  A row
        # whose per-bit weights all underflow sums to zero, and one whose
        # sum overflows makes `fsum` raise.
        try:
            self._bit_weights = tuple(_normalized([w / 8.0 for w in row for _ in range(8)])
                                      for row in self.byte_affinity)
        except (ZeroDivisionError, OverflowError):
            raise InvariantError(
                f"{origin}: affinity weights underflow or overflow per bit"
            ) from None
        # Per core, what `draw_flip_masks` reads: the multiplicity CDF, the
        # bit CDF, and how many bits the CDF can reach, which caps a
        # pattern's bit count.
        tables = []
        for mult, bits in zip(self.multiplicity, self._bit_weights):
            bit_cdf = _cdf(bits)
            reach = sum(hi > lo for lo, hi in zip((0.0,) + bit_cdf, bit_cdf))
            tables.append((_cdf(mult), bit_cdf, reach))
        self._flip_tables = tuple(tables)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._raw == other._raw

    def __hash__(self):
        return hash(self.name)

    def __reduce__(self):
        return ProcessorProfile, (_thawed_doc(self._raw),)

    # -- lookups ---------------------------------------------------------

    def pstate_point(self, pstate: str | int) -> PStatePoint:
        # Keys are canonical, so only a miss is normalised.
        point = self.pstates.get(pstate) or self.pstates.get(key := normalize_pstate(pstate))
        if point is None:
            raise UnknownCoreOrPState(f"{self.name} does not define pstate {key}")
        return point

    def check_core(self, core: int) -> int:
        if not 0 <= core < self.physical_cores:
            raise UnknownCoreOrPState(f"{self.name} has no core {core}")
        return core

    def calibration_entry(self, scenario: str) -> CalibrationEntry:
        try:
            return self.calibration[scenario]
        except KeyError:
            raise UnknownCoreOrPState(f"{self.name} has no calibration for {scenario!r}") from None

    def bit_weights(self, core: int) -> tuple[float, ...]:
        return self._bit_weights[self.check_core(core)]

    def logical_cores(self) -> int:
        return self.physical_cores * self.threads_per_core


def normalize_pstate(pstate: str | int) -> str:
    """Canonical lowercase hex key, e.g. 0x1B or '0x1B' or 27 -> '0x1b'.

    A number must be a whole one: a bool, a fraction or a non-finite float
    is refused like an out-of-range ratio.
    """
    if isinstance(pstate, str):
        try:
            value = int(pstate, 16)
        except ValueError:
            raise UnknownCoreOrPState(f"pstate {pstate!r} is not a hex ratio") from None
    elif isinstance(pstate, float) and pstate.is_integer():
        value = int(pstate)
    elif isinstance(pstate, bool) or not hasattr(pstate, "__index__"):
        raise UnknownCoreOrPState(f"pstate ratio {pstate!r} is not a whole number")
    else:
        value = pstate.__index__()
    if not 1 <= value <= 255:
        raise UnknownCoreOrPState(f"pstate ratio {value} outside 1..=255")
    return f"0x{value:02x}"


def load_profile(name_or_path) -> ProcessorProfile:
    """Load a bundled profile by name (e.g. 'i7-8700K') or any JSON path.

    A bundled profile is read, parsed and validated once per process: later
    calls with the same name, in any case, return the same read-only
    profile.  A path is read afresh on every call, since the file may
    change.  A refused name or file is refused on every call."""
    origin = str(name_or_path)
    if origin.lower().endswith(".json") or "/" in origin:
        with open(origin, "rb") as fh:
            return _parse_profile(fh.read(), origin)
    return _bundled_profile(origin.lower())


@cache
def _bundled_profile(name: str) -> ProcessorProfile:
    """The bundled profile `name` (lowercase), built once per process."""
    res = resources.files("voltlab").joinpath(f"data/profiles/{name}.json")
    if not res.is_file():
        raise SchemaError(f"no bundled profile named {name!r}")
    return _parse_profile(res.read_bytes(), name)


def _parse_profile(data: bytes, origin: str) -> ProcessorProfile:
    """The profile in the UTF-8 JSON `data`; `origin` names it in errors."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as bad:
        raise SchemaError(f"{origin}: not UTF-8 text (byte {bad.start})") from None
    except (ValueError, RecursionError) as exc:  # also past Python's digit or depth limit
        raise SchemaError(f"{origin}: not valid JSON ({exc})") from None
    return ProcessorProfile(raw, origin=origin)


def bundled_profile_names() -> list[str]:
    pkg = resources.files("voltlab").joinpath("data/profiles")
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


# ---------------------------------------------------------------------------
# Voltage geometry


def region_boundaries_mv(
    profile: ProcessorProfile, core: int, pstate: str | int, temp_c: float
) -> tuple[float, float, float]:
    """(corrected band top, window top, instability boundary) in mV.

    The window top is the core's fault voltage shifted up by heat:
    temp_coeff_mv_per_c per degree above the pstate's reference
    temperature, so cooler cores fault slightly later.  The instability
    boundary lies the pstate's window width below it.
    """
    point = profile.pstate_point(pstate)
    top = point.fault_voltage_mv[profile.check_core(core)]
    top += profile.temp_coeff_mv_per_c * (temp_c - point.reference_temp_c)
    return top + profile.corrected_band_mv, top, top - point.exploit_window_mv


def classify_voltage(
    profile: ProcessorProfile,
    core: int,
    pstate: str | int,
    voltage_v: float,
    temp_c: float,
) -> VoltageRegion:
    """Which region an effective core voltage lands in."""
    v_mv = _quantize_mv(voltage_v)
    corrected_top, top, floor = region_boundaries_mv(profile, core, pstate, temp_c)
    if v_mv > corrected_top:
        return VoltageRegion.NORMAL
    if v_mv > top:
        return VoltageRegion.CORRECTED_ERRORS
    if v_mv > floor:
        return VoltageRegion.EXPLOIT_WINDOW
    return VoltageRegion.UNSTABLE


def event_fault_probability(
    profile: ProcessorProfile, core: int, pstate: str | int, scenario: str,
    stressor_multiplier: float, v_eff_mv: float, temp_c: float,
) -> float:
    """Per-event fault probability at one effective voltage.

    Zero outside the exploit window.  Inside, the calibrated per-core
    ceiling is scaled by the stressor multiplier, the pstate's exploit
    factor (for gated scenarios), and the depth ramp, then clamped.
    """
    return _event_curve(profile, core, pstate, scenario, stressor_multiplier, temp_c)[0](v_eff_mv)


def _event_curve(profile, core, pstate, scenario, stressor_multiplier, temp_c):
    """`event_fault_probability` at one (core, pstate, scenario, multiplier,
    temperature) as a function of the effective voltage alone, and the
    voltages where it bends (the window edges, the ramp's end, the clamp)."""
    point = profile.pstate_point(pstate)
    _, top, floor = region_boundaries_mv(profile, core, pstate, temp_c)
    width = point.exploit_window_mv
    entry = profile.calibration_entry(scenario)
    ceiling = entry.p_event_max[core] * stressor_multiplier  # at full manifestation, unclamped
    if entry.pstate_gated:
        ceiling *= point.exploit_factor

    def p_at(v_eff_mv: float) -> float:
        if width <= 0.0 or v_eff_mv > top or v_eff_mv <= floor:
            return 0.0
        return min(ceiling * manifestation((top - v_eff_mv) / width), 1.0)

    breaks = [top, floor]
    if width > 0.0:
        breaks.append(top - width * RAMP_SATURATION_DEPTH)
        if ceiling > 1.0:
            breaks.append(top - width * RAMP_SATURATION_DEPTH / ceiling)
    return p_at, breaks


def _integrate_piecewise(fn, lo: float, hi: float, breakpoints) -> float:
    """Exact integral of a function that is linear between breakpoints.

    Midpoint rule per piece: exact on linear segments, and indifferent to
    which side of a jump the breakpoint itself belongs to.
    """
    if hi <= lo:
        return 0.0
    points = [lo]  # then the distinct breakpoints strictly inside, ascending, then hi
    for b in sorted(breakpoints):
        if lo < b < hi and b != points[-1]:
            points.append(b)
    points.append(hi)
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += fn(0.5 * (a + b)) * (b - a)
    return total


def mean_event_fault_probability(
    profile: ProcessorProfile, core: int, pstate: str | int, scenario: str,
    stressor_multiplier: float, v_nominal_mv: float, temp_c: float,
) -> float:
    """Per-event fault probability averaged over the supply-noise band.

    The pointwise probability is piecewise linear in the effective voltage
    (ramp, plateau, cap, and the window edges), so averaging over uniform
    noise reduces to exact trapezoids between the breakpoints.  This is
    the marginal that lets a campaign draw one binomial per try instead of
    one uniform per store without changing the distribution.  The window
    and ceiling are read once per call, not once per trapezoid.
    """
    n = profile.noise_mv
    if n <= 0.0:
        return event_fault_probability(
            profile, core, pstate, scenario, stressor_multiplier, v_nominal_mv, temp_c
        )
    p_at, breaks = _event_curve(profile, core, pstate, scenario, stressor_multiplier, temp_c)
    return _integrate_piecewise(p_at, v_nominal_mv - n, v_nominal_mv + n, breaks) / (2.0 * n)


def mean_crash_probability(
    profile: ProcessorProfile, core: int, pstate: str | int, v_nominal_mv: float, temp_c: float
) -> float:
    """Per-slice crash probability averaged over the supply-noise band."""
    point = profile.pstate_point(pstate)
    _, _, floor = region_boundaries_mv(profile, core, pstate, temp_c)
    n = profile.noise_mv
    if n <= 0.0:
        return crash_probability_per_slice(profile, point.ratio, floor - v_nominal_mv)
    lo, hi = v_nominal_mv - n, v_nominal_mv + n
    if lo > floor:
        return 0.0  # every trapezoid's midpoint lies above the floor, where the chance is 0
    breaks = [floor]
    rate, slope = profile.crash
    if slope > 0 and rate > 0:
        cap_depth = (1.0 / (rate * _crash_freq_factor(point.ratio)) - 1.0) / slope
        if cap_depth > 0:
            breaks.append(floor - cap_depth)

    def g_at(v):
        return crash_probability_per_slice(profile, point.ratio, floor - v)

    return _integrate_piecewise(g_at, lo, hi, breaks) / (2.0 * n)


# ---------------------------------------------------------------------------
# Stochastic draws
#
# A flip pattern is `k` distinct bits of a 128-bit word.  The core's
# multiplicity row picks one bit, two, or three plus `binomial(4, 0.2)`,
# never more than its bit CDF can reach, and the bits are a weighted sample
# without replacement from the core's bit weights.
#
# Runs of patterns are drawn as one block of uniforms: one per pattern picks
# its bucket and one its first bit, each by bisection into the core's CDF.
# Only the multi-bit patterns draw more.  Each later bit is a
# weighted draw with replacement, and a bit the row already holds is
# rejected.  Rejecting repeats is successive weighted sampling: given the
# bits kept so far, the next kept bit falls on each bit left in proportion
# to its weight, which is the distribution of `Generator.choice(...,
# replace=False, p=...)`.  `tests/helpers.reference_flip_pattern` keeps that
# `choice` call as the distribution oracle.

# The one-bit masks, shared: most patterns are one bit, and a long block of
# masks then holds references instead of a fresh int per pattern.
_BIT = tuple(1 << b for b in range(128))
_CRASH_KINDS = tuple(CrashKind)  # by value: indexing is cheaper than calling the enum


def _frozen_doc(value):
    """A read-only deep copy of the JSON value `value`: objects become
    mapping proxies and arrays tuples."""
    if type(value) is dict:
        return MappingProxyType({k: _frozen_doc(v) for k, v in value.items()})
    if type(value) in (list, tuple):
        return tuple(map(_frozen_doc, value))
    return value


def _thawed_doc(value):
    """The plain JSON value that `_frozen_doc` froze."""
    if type(value) is MappingProxyType:
        return {k: _thawed_doc(v) for k, v in value.items()}
    if type(value) is tuple:
        return list(map(_thawed_doc, value))
    return value


def _normalized(weights) -> tuple[float, ...]:
    """`weights` over their sum; raises ZeroDivisionError if it is zero and
    OverflowError if it overflows."""
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def _cdf(weights) -> tuple[float, ...]:
    """The normalised CDF of `weights`, as `Generator.choice` builds it."""
    c = list(accumulate(weights))
    return tuple(x / c[-1] for x in c)


def draw_flip_masks(profile: ProcessorProfile, core: int, n: int, rng: Stream) -> list[int]:
    """The masks of `n` flip patterns on physical `core`, in draw order.

    Draw order: one `rng.random(2 * n)` block, whose first `n` uniforms pick
    each pattern's multiplicity bucket and last `n` its first bit; then, per
    multi-bit pattern in order, `binomial(4, 0.2)` for bucket 2 and one
    uniform per later bit, repeats included."""
    mult_cdf, bit_cdf, reach = profile._flip_tables[profile.check_core(core)]
    u = rng.random(2 * n)
    masks = [_BIT[bisect_right(bit_cdf, x)] for x in u[n:]]
    for i, x in enumerate(u[:n]):
        if x < mult_cdf[0]:
            continue  # one bit: the first is the pattern
        k = min(2 if x < mult_cdf[1] else 3 + int(rng.binomial(4, 0.2)), reach)
        mask = masks[i]
        while mask.bit_count() < k:
            mask |= _BIT[bisect_right(bit_cdf, rng.random())]
        masks[i] = mask
    return masks


def draw_flip_pattern(
    profile: ProcessorProfile, core: int, word_index: int, rng: Stream
) -> BitFlipPattern:
    """Sample one flip pattern from the core's multiplicity and affinity
    tables: `draw_flip_masks` with `n = 1`, drawn in its order."""
    return BitFlipPattern(word_index, draw_flip_masks(profile, core, 1, rng)[0])


def crash_kind_weights(ratio: int) -> tuple[float, float, float]:
    """Relative weights for (kernel exception, freeze, hard crash).

    Low ratios die softly; past the pivot the hard-crash term grows
    quadratically and overtakes the recoverable kinds.
    """
    rn = ratio / _KIND_PIVOT_RATIO
    return _normalized((2.2 / rn, 0.5, rn * rn))


@cache
def _crash_kind_cdf(ratio: int) -> tuple[float, ...]:
    """`_cdf(crash_kind_weights(ratio))`, built once per ratio."""
    return _cdf(crash_kind_weights(ratio))


def draw_crash_kind(ratio: int, rng: Stream) -> CrashKind:
    """Which way the platform dies at this ratio: one weighted draw."""
    return _CRASH_KINDS[bisect_right(_crash_kind_cdf(ratio), rng.random())]


def crash_probability_per_slice(
    profile: ProcessorProfile, ratio: int, depth_below_window_mv: float
) -> float:
    """Per-slice crash chance at a given depth below the instability line."""
    if depth_below_window_mv < 0.0:
        return 0.0
    p = profile.crash.rate_per_slice
    p *= 1.0 + profile.crash.depth_slope_per_mv * depth_below_window_mv
    p *= _crash_freq_factor(ratio)
    return min(p, 1.0)


def _crash_freq_factor(ratio: int) -> float:
    """How the crash rate scales with the core clock: 1 at ratio 32."""
    return 0.5 + 0.5 * ratio / 32.0


# ---------------------------------------------------------------------------
# Temperature


def victim_temp_target_c(profile: ProcessorProfile, pstate: str, temp_boost_c: float) -> float:
    """Equilibrium temperature of the victim's physical core when it hosts
    no attacker thread: the pstate's reference temperature plus the
    stressor's boost, never below ambient."""
    point = profile.pstate_point(pstate)
    return max(profile.ambient_temp_c, point.reference_temp_c + temp_boost_c)
