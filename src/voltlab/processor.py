"""Calibrated multi-core fault model.

A ProcessorProfile carries, per (core, pstate), the voltage where silent
SIMD faults begin (the window top), how wide the exploitable band under it
is, and per-scenario probabilities that an eligible vector store actually
corrupts data once the supply sits inside that band.  A PlatformState is
one simulated machine wired to a profile: pstate pin, applied undervolt,
per-core temperatures, and the logical-core role assignment.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from importlib import resources

import numpy as np

from .errors import InvariantError, SchemaError, UnknownCoreOrPState

SCHEMA_VERSION = 1

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


ROLE_IDLE = "idle"
ROLE_ATTACKER = "attacker"
ROLE_VICTIM = "victim"
ROLE_STRESSOR = "stressor"


def _quantize_mv(volts: float) -> float:
    """Volts -> millivolts, snapped to whole microvolts."""
    return round(volts * 1e6) / 1000.0


def _profile_mv(volts) -> float:
    """A profile voltage in mV; a non-finite one is left for `_validate` to refuse."""
    uv = volts * 1e6
    return _quantize_mv(volts) if math.isfinite(uv) else uv / 1000.0


def _whole(origin: str, field: str, value) -> int:
    """An integer profile field; a non-finite or fractional number is refused."""
    if isinstance(value, float) and not value.is_integer():
        raise InvariantError(f"{origin}: {field} must be a whole number, not {value}")
    return int(value)


def manifestation(depth_fraction: float) -> float:
    """Piecewise-linear ramp over normalized window depth, clamped to [0, 1]."""
    if depth_fraction <= 0.0:
        return 0.0
    if depth_fraction >= RAMP_SATURATION_DEPTH:
        return 1.0
    return depth_fraction / RAMP_SATURATION_DEPTH


@dataclass(frozen=True)
class PStatePoint:
    ratio: int
    base_voltage_mv: float
    reference_temp_c: float
    exploit_window_mv: float
    exploit_factor: float
    fault_voltage_mv: tuple[float, ...]  # window top per core


@dataclass(frozen=True)
class CalibrationEntry:
    pstate_gated: bool
    p_event_max: tuple[float, ...]  # per core


@dataclass(frozen=True)
class CrashParams:
    rate_per_slice: float
    depth_slope_per_mv: float
    reboot_slices: int


@dataclass(frozen=True)
class BitFlipPattern:
    """One corrupted 128-bit word: which word, and which bits flipped."""

    word_index: int
    flipped_bits: frozenset[int]

    def __post_init__(self):
        if not self.flipped_bits:
            raise InvariantError("a flip pattern needs at least one bit")
        if min(self.flipped_bits) < 0 or max(self.flipped_bits) > 127:
            raise InvariantError("flip bit positions live in 0..127")

    @property
    def mask(self) -> int:
        m = 0
        for b in self.flipped_bits:
            m |= 1 << b
        return m

    @property
    def byte_positions(self) -> frozenset[int]:
        return frozenset(b // 8 for b in self.flipped_bits)

    @property
    def multiplicity(self) -> int:
        return len(self.flipped_bits)


@dataclass(frozen=True)
class EligibleStoreEvent:
    """A fault-eligible vector store about to retire."""

    scenario: str
    word_index: int
    slice_index: int = 0


class ProcessorProfile:
    """Immutable calibration data for one processor model."""

    def __init__(self, raw: dict, origin: str = "<dict>"):
        self._origin = origin
        try:
            if raw["schema_version"] != SCHEMA_VERSION:
                raise SchemaError(
                    f"{origin}: schema_version {raw['schema_version']} unsupported"
                )
            self.name: str = raw["model_name"]
            self.physical_cores = _whole(origin, "physical_cores", raw["physical_cores"])
            self.threads_per_core = _whole(origin, "threads_per_core", raw["threads_per_core"])
            self.base_clock_mhz = _whole(origin, "base_clock_mhz", raw["base_clock_mhz"])
            self.ambient_temp_c: float = float(raw["ambient_temp_c"])
            self.noise_mv: float = float(raw["noise_mv"])
            self.temp_coeff_mv_per_c: float = float(raw["temp_coeff_mv_per_c"])
            self.corrected_band_mv: float = float(raw["corrected_band_mv"])
            self.corrected_log_rate: float = float(raw["corrected_log_rate_per_slice"])
            self.decode_error_rate: float = float(raw["decode_error_rate_per_slice"])
            self.default_attack_pstate: str = normalize_pstate(raw["default_attack_pstate"])
            self.affinity_source: str = raw.get("affinity_source", "unspecified")
            crash = raw["crash"]
            self.crash = CrashParams(
                float(crash["rate_per_slice"]),
                float(crash["depth_slope_per_mv"]),
                _whole(origin, "crash.reboot_slices", crash["reboot_slices"]),
            )
            self.pstates: dict[str, PStatePoint] = {}
            for key, entry in raw["pstates"].items():
                norm = normalize_pstate(key)
                self.pstates[norm] = PStatePoint(
                    ratio=int(norm, 16),
                    base_voltage_mv=_profile_mv(entry["base_voltage_v"]),
                    reference_temp_c=float(entry["reference_temp_c"]),
                    exploit_window_mv=float(entry["exploit_window_mv"]),
                    exploit_factor=float(entry["exploit_factor"]),
                    fault_voltage_mv=tuple(_profile_mv(v) for v in entry["fault_voltage_v"]),
                )
            self.byte_affinity = np.asarray(raw["byte_affinity"], dtype=float)
            self.multiplicity = np.asarray(raw["multiplicity"], dtype=float)
            self.calibration: dict[str, CalibrationEntry] = {}
            for scenario, entry in raw["calibration"].items():
                self.calibration[scenario] = CalibrationEntry(
                    bool(entry["pstate_gated"]),
                    tuple(float(p) for p in entry["p_event_max"]),
                )
        except KeyError as missing:
            raise SchemaError(f"{origin}: missing field {missing}") from None
        self._validate()
        # Per-core bit weights: byte affinity spread uniformly over each
        # byte's 8 bits, normalized for sampling without replacement.
        rows = []
        with np.errstate(all="ignore"):  # a row that does not survive this is refused below
            for core in range(self.physical_cores):
                per_bit = np.repeat(self.byte_affinity[core], 8) / 8.0
                rows.append(per_bit / per_bit.sum())
        self._bit_weights = np.asarray(rows)
        if not np.allclose(self._bit_weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            raise InvariantError(f"{origin}: affinity weights underflow or overflow per bit")
        # Per core, what `_walk` reads: (multiplicity CDF, bit CDF, count of
        # bits with positive weight, bit weights).
        self._flip_tables = [
            (_cdf(mult), _cdf(bits), int(np.count_nonzero(bits)), bits)
            for mult, bits in zip(self.multiplicity, self._bit_weights)
        ]

    def _validate(self):
        n = self.physical_cores
        numbers = [self.ambient_temp_c, self.noise_mv, self.temp_coeff_mv_per_c]
        numbers += [self.corrected_band_mv, self.corrected_log_rate, self.decode_error_rate]
        numbers += [self.crash.rate_per_slice, self.crash.depth_slope_per_mv]
        for point in self.pstates.values():
            numbers += [point.base_voltage_mv, point.reference_temp_c, point.exploit_window_mv]
            numbers += [point.exploit_factor, *point.fault_voltage_mv]
        for entry in self.calibration.values():
            numbers += entry.p_event_max
        for values in (numbers, self.byte_affinity, self.multiplicity):
            if not np.isfinite(values).all():
                raise InvariantError(f"{self._origin}: profile numbers must be finite")
        if n < 2 or self.threads_per_core < 2:
            # One whole core for the attacker, the stressor on the victim's partner.
            raise InvariantError(
                f"{self._origin}: the attack partition needs 2+ cores of 2+ threads"
            )
        if self.noise_mv < 0 or self.corrected_band_mv < 0:
            raise InvariantError(f"{self._origin}: noise and band widths are nonnegative")
        if self.byte_affinity.shape != (n, 16):
            raise SchemaError(f"{self._origin}: byte_affinity must be {n}x16")
        if self.multiplicity.shape != (n, 3):
            raise SchemaError(f"{self._origin}: multiplicity must be {n}x3")
        if (self.byte_affinity < 0).any():
            raise InvariantError(f"{self._origin}: affinity weights are nonnegative")
        if (self.byte_affinity.max(axis=1) <= 0).any():
            raise InvariantError(f"{self._origin}: every core needs a positive affinity weight")
        if (self.multiplicity < 0).any():
            raise InvariantError(f"{self._origin}: multiplicity entries are nonnegative")
        sums = self.multiplicity.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise InvariantError(f"{self._origin}: multiplicity rows must sum to 1")
        for key, point in self.pstates.items():
            if len(point.fault_voltage_mv) != n:
                raise SchemaError(f"{self._origin}: {key} fault voltages must cover {n} cores")
            if point.exploit_window_mv < 0:
                raise InvariantError(f"{self._origin}: {key} window width is nonnegative")
            if not 0.0 <= point.exploit_factor <= 1.0:
                raise InvariantError(f"{self._origin}: {key} exploit factor in [0, 1]")
            for core, fault_mv in enumerate(point.fault_voltage_mv):
                if fault_mv >= point.base_voltage_mv:
                    raise InvariantError(
                        f"{self._origin}: {key} core {core} fault voltage "
                        f"{fault_mv} mV not below base {point.base_voltage_mv} mV"
                    )
        for scenario, entry in self.calibration.items():
            if len(entry.p_event_max) != n:
                raise SchemaError(f"{self._origin}: calibration {scenario} must cover {n} cores")
            if any(not 0.0 <= p <= 1.0 for p in entry.p_event_max):
                raise InvariantError(f"{self._origin}: calibration {scenario} out of [0, 1]")
        if self.default_attack_pstate not in self.pstates:
            raise SchemaError(f"{self._origin}: default attack pstate undefined")

    # -- lookups ---------------------------------------------------------

    def pstate_point(self, pstate: str | int) -> PStatePoint:
        key = normalize_pstate(pstate)
        try:
            return self.pstates[key]
        except KeyError:
            raise UnknownCoreOrPState(f"{self.name} does not define pstate {key}") from None

    def check_core(self, core: int) -> int:
        if not 0 <= core < self.physical_cores:
            raise UnknownCoreOrPState(f"{self.name} has no core {core}")
        return core

    def calibration_entry(self, scenario: str) -> CalibrationEntry:
        try:
            return self.calibration[scenario]
        except KeyError:
            raise UnknownCoreOrPState(f"{self.name} has no calibration for {scenario!r}") from None

    def bit_weights(self, core: int) -> np.ndarray:
        return self._bit_weights[self.check_core(core)]

    def logical_cores(self) -> int:
        return self.physical_cores * self.threads_per_core


def normalize_pstate(pstate: str | int) -> str:
    """Canonical lowercase hex key, e.g. 0x1B or '0x1B' or 27 -> '0x1b'."""
    if isinstance(pstate, str):
        value = int(pstate, 16)
    else:
        value = int(pstate)
    if not 1 <= value <= 255:
        raise UnknownCoreOrPState(f"pstate ratio {value} outside 1..=255")
    return f"0x{value:02x}"


def load_profile(name_or_path) -> ProcessorProfile:
    """Load a bundled profile by name (e.g. 'i7-8700K') or any JSON path."""
    text = None
    origin = str(name_or_path)
    candidate = str(name_or_path)
    if candidate.lower().endswith(".json") or "/" in candidate:
        with open(candidate, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        stem = candidate.lower()
        res = resources.files("voltlab").joinpath(f"data/profiles/{stem}.json")
        if not res.is_file():
            raise SchemaError(f"no bundled profile named {candidate!r}")
        text = res.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{origin}: not valid JSON ({exc})") from None
    return ProcessorProfile(raw, origin=origin)


def bundled_profile_names() -> list[str]:
    pkg = resources.files("voltlab").joinpath("data/profiles")
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


# ---------------------------------------------------------------------------
# Platform state


@dataclass
class PlatformState:
    """One simulated machine.  Owned by a single campaign at a time."""

    profile: ProcessorProfile
    pstate: str
    offset_mv: dict[int, int] = field(default_factory=dict)  # domain -> mV
    core_temp_c: np.ndarray = None
    assignment: tuple[str, ...] = ()
    stressor_name: str = "none"
    stressor_fault_multiplier: float = 1.0
    stressor_temp_boost_c: float = 0.0
    seed: int = 0
    temp_tau_s: float = 2.0

    def __post_init__(self):
        self.pstate = normalize_pstate(self.pstate)
        self.profile.pstate_point(self.pstate)
        if self.core_temp_c is None:
            self.core_temp_c = np.full(
                self.profile.physical_cores, self.profile.ambient_temp_c, dtype=float
            )
        else:
            self.core_temp_c = np.asarray(self.core_temp_c, dtype=float).copy()
        if not self.assignment:
            self.assignment = (ROLE_IDLE,) * self.profile.logical_cores()
        if len(self.assignment) != self.profile.logical_cores():
            raise InvariantError("assignment must cover every logical core")
        if sum(1 for r in self.assignment if r == ROLE_VICTIM) > 1:
            raise InvariantError("at most one logical core may run the victim")
        if self.stressor_fault_multiplier < 1.0:
            raise InvariantError("stressor fault multiplier is at least 1")

    # Logical core L is thread L // physical of physical core L % physical.
    def physical_of(self, logical: int) -> int:
        return logical % self.profile.physical_cores

    def partner_of(self, logical: int) -> int:
        return (logical + self.profile.physical_cores) % self.profile.logical_cores()

    @property
    def victim_logical(self) -> int | None:
        for idx, role in enumerate(self.assignment):
            if role == ROLE_VICTIM:
                return idx
        return None

    @property
    def victim_physical(self) -> int | None:
        logical = self.victim_logical
        return None if logical is None else self.physical_of(logical)

    def core_offset_mv(self) -> float:
        """Offset applied to the core voltage domain (domain 0)."""
        return float(self.offset_mv.get(0, 0))

    def nominal_voltage_mv(self) -> float:
        point = self.profile.pstate_point(self.pstate)
        return point.base_voltage_mv + self.core_offset_mv()


# ---------------------------------------------------------------------------
# Voltage geometry


def effective_window_top_mv(
    profile: ProcessorProfile, core: int, pstate: str | int, temp_c: float
) -> float:
    """Window top for this core, shifted up by heat.

    The shift is temp_coeff_mv_per_c per degree above the pstate's reference
    temperature; cooler cores fault slightly later.
    """
    point = profile.pstate_point(pstate)
    top = point.fault_voltage_mv[profile.check_core(core)]
    return top + profile.temp_coeff_mv_per_c * (temp_c - point.reference_temp_c)


def region_boundaries_mv(
    profile: ProcessorProfile, core: int, pstate: str | int, temp_c: float
) -> tuple[float, float, float]:
    """(corrected band top, window top, instability boundary) in mV."""
    point = profile.pstate_point(pstate)
    top = effective_window_top_mv(profile, core, pstate, temp_c)
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
    profile: ProcessorProfile,
    core: int,
    pstate: str | int,
    scenario: str,
    stressor_multiplier: float,
    v_eff_mv: float,
    temp_c: float,
) -> float:
    """Per-event fault probability at one effective voltage.

    Zero outside the exploit window.  Inside, the calibrated per-core
    ceiling is scaled by the stressor multiplier, the pstate's exploit
    factor (for gated scenarios), and the depth ramp, then clamped.
    """
    point = profile.pstate_point(pstate)
    top = effective_window_top_mv(profile, core, pstate, temp_c)
    width = point.exploit_window_mv
    if width <= 0.0 or v_eff_mv > top or v_eff_mv <= top - width:
        return 0.0
    p = _scenario_ceiling(profile, point, core, scenario, stressor_multiplier)
    p *= manifestation((top - v_eff_mv) / width)
    return min(p, 1.0)


def _scenario_ceiling(profile, point, core, scenario, stressor_multiplier) -> float:
    """Per-event fault probability at full manifestation, before the clamp."""
    entry = profile.calibration_entry(scenario)
    p = entry.p_event_max[core] * stressor_multiplier
    if entry.pstate_gated:
        p *= point.exploit_factor
    return p


def _integrate_piecewise(fn, lo: float, hi: float, breakpoints) -> float:
    """Exact integral of a function that is linear between breakpoints.

    Midpoint rule per piece: exact on linear segments, and indifferent to
    which side of a jump the breakpoint itself belongs to.
    """
    if hi <= lo:
        return 0.0
    points = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += fn(0.5 * (a + b)) * (b - a)
    return total


def mean_event_fault_probability(
    profile: ProcessorProfile,
    core: int,
    pstate: str | int,
    scenario: str,
    stressor_multiplier: float,
    v_nominal_mv: float,
    temp_c: float,
) -> float:
    """Per-event fault probability averaged over the supply-noise band.

    The pointwise probability is piecewise linear in the effective voltage
    (ramp, plateau, cap, and the window edges), so averaging over uniform
    noise reduces to exact trapezoids between the breakpoints.  This is
    the marginal that lets a campaign draw one binomial per try instead of
    one uniform per store without changing the distribution.
    """
    point = profile.pstate_point(pstate)
    core = profile.check_core(core)
    n = profile.noise_mv

    def p_at(v):
        return event_fault_probability(
            profile, core, pstate, scenario, stressor_multiplier, v, temp_c
        )

    if n <= 0.0:
        return p_at(v_nominal_mv)
    top = effective_window_top_mv(profile, core, pstate, temp_c)
    width = point.exploit_window_mv
    breaks = [top, top - width]
    ceiling = _scenario_ceiling(profile, point, core, scenario, stressor_multiplier)
    if width > 0.0:
        breaks.append(top - width * RAMP_SATURATION_DEPTH)
        if ceiling > 1.0:  # the clamp introduces its own corner
            breaks.append(top - width * RAMP_SATURATION_DEPTH / ceiling)
    lo, hi = v_nominal_mv - n, v_nominal_mv + n
    return _integrate_piecewise(p_at, lo, hi, breaks) / (2.0 * n)


def mean_crash_probability(
    profile: ProcessorProfile,
    core: int,
    pstate: str | int,
    v_nominal_mv: float,
    temp_c: float,
) -> float:
    """Per-slice crash probability averaged over the supply-noise band."""
    point = profile.pstate_point(pstate)
    core = profile.check_core(core)
    top = effective_window_top_mv(profile, core, pstate, temp_c)
    floor = top - point.exploit_window_mv
    ratio = point.ratio
    n = profile.noise_mv

    def g_at(v):
        return crash_probability_per_slice(profile, ratio, floor - v)

    if n <= 0.0:
        return g_at(v_nominal_mv)
    freq_factor = 0.5 + 0.5 * ratio / 32.0
    breaks = [floor]
    if profile.crash.depth_slope_per_mv > 0 and profile.crash.rate_per_slice > 0:
        cap_depth = (1.0 / (profile.crash.rate_per_slice * freq_factor) - 1.0) / (
            profile.crash.depth_slope_per_mv
        )
        if cap_depth > 0:
            breaks.append(floor - cap_depth)
    lo, hi = v_nominal_mv - n, v_nominal_mv + n
    return _integrate_piecewise(g_at, lo, hi, breaks) / (2.0 * n)


# ---------------------------------------------------------------------------
# Stochastic draws
#
# Every weighted draw here consumes the generator exactly as
# `Generator.choice(..., p=...)` does, without calling it: `choice` redoes its
# argument checks and CDF on every call, and these tables never change.  A
# draw with replacement is one uniform bisected into the CDF that `choice`
# builds (`_cdf`); a flip pattern replays `choice(..., replace=False)` round
# by round.  `tests/helpers.py` keeps the `choice` calls as the oracle.
#
# Runs of draws are replayed from blocks of raw Philox words (`_Words`), and
# a block is exact, not a new stream, for these reasons:
#
# - `bit_generator.random_raw(m)` takes the generator's next `m` 64-bit
#   words, and `random()` reads one whole word `w` as `(w >> 11) * 2**-53`;
#   `random(m)` takes the same words as `m` scalar calls.
# - `binomial(4, 0.2)` takes numpy's inversion branch (n*p <= 30), which
#   reads one uniform per attempt; `_walk` replays it with the same float
#   operations.
# - A bounded draw (`_Words.bounded`) reads half-words: `next_uint32`
#   returns the low half of a fresh word and buffers the high half in the
#   state's `has_uint32`/`uinteger` for the next call.  Doubles leave that
#   buffer alone.  The reader takes it from `bit_generator.state` on entry
#   and writes it back on close.
# - numpy bounds a half-word to `0..r` by Lemire's method: multiply by
#   `r + 1`, reject while the low 32 bits of the product are under
#   `(2**32 - 1 - r) % (r + 1)`, return the high 32 bits.  `r == 0` draws
#   nothing.
# - `choice(n, k, replace=False)` without `p`, for `n` up to 10 000, is
#   Floyd's algorithm: for `j` from `n - k` to `n - 1`, draw `val` bounded
#   by `j` and add it, or `j` if `val` is already in.  Then it shuffles the
#   picks with one draw bounded by `i` for each `i` from `k - 1` down to 1.
#   Callers sort the picks, so the shuffle's draws are consumed and their
#   values dropped.  Above 10 000 numpy may tail-shuffle the population
#   instead; that is refused.
# - A block never draws past what the sequential calls consume: it draws
#   only a lower bound of what is still owed (`_Words.later` plus what the
#   draw in hand still needs), so the generator ends where those calls
#   leave it.

# numpy's `random_binomial_inversion` constants for binomial(4, 0.2).
_BINOM_N, _BINOM_P = 4, 0.2
_BINOM_Q = 1.0 - _BINOM_P
_BINOM_QN = math.exp(_BINOM_N * math.log(_BINOM_Q))
_BINOM_BOUND = int(
    min(_BINOM_N, _BINOM_N * _BINOM_P + 10.0 * math.sqrt(_BINOM_N * _BINOM_P * _BINOM_Q + 1))
)

# Words per block draw: bounds the buffer a long run of draws holds.
_BLOCK = 256

# The largest population `choice(..., replace=False)` surely draws by Floyd's
# algorithm; numpy's tail-shuffle branch starts above it.
_FLOYD_MAX = 10_000

_M32 = 0xFFFF_FFFF

# The one-bit masks, shared: most patterns are one bit, and a long block of
# masks then holds references instead of a fresh int per pattern.
_BIT = tuple(1 << b for b in range(128))


def _cdf(weights) -> list[float]:
    """The CDF `Generator.choice` builds from `weights`, as a list for `bisect`."""
    c = np.cumsum(weights)
    c /= c[-1]
    return c.tolist()


def _draw_index(cdf: list[float], rng: np.random.Generator) -> int:
    """One weighted index: `rng.choice(len(cdf), p=...)`, from the same uniform."""
    return bisect_right(cdf, rng.random())


class _Short(Exception):
    """The uniforms ran out mid-pattern; the pattern needs `need` more at least."""

    def __init__(self, need: int):
        self.need = need


def _binomial(u: list[float], pos: int) -> tuple[int, int]:
    """`binomial(4, 0.2)` from the uniforms `u[pos:]`; returns (count, next pos).

    numpy's inversion: one uniform, walked down the pmf with the same float
    operations, and a fresh uniform each time the count passes the bound.
    No uniform below 1 passes it for these constants (a test pins this), so
    each draw reads one; the fresh-uniform branch keeps the replay numpy's.
    """
    x, px, v = 0, _BINOM_QN, u[pos]
    pos += 1
    while v > px:
        x += 1
        if x > _BINOM_BOUND:
            if pos >= len(u):
                raise _Short(2)  # the new attempt and at least one bit
            x, px, v = 0, _BINOM_QN, u[pos]
            pos += 1
        else:
            v -= px
            px = ((_BINOM_N - x + 1) * _BINOM_P * px) / (x * _BINOM_Q)
    return x, pos


def _later_rounds(
    weights: np.ndarray, found: list[int], k: int, u: list[float], pos: int
) -> tuple[list[int], int]:
    """`choice(..., replace=False)`'s rounds after the first drew duplicates.

    Each round reads one uniform per missing index from `u[pos:]`, zeroes
    the weights of the indices found so far, rebuilds the CDF, and keeps
    the first occurrence of each new index in draw order.  Returns the `k`
    indices and the next position.
    """
    p = weights.copy()
    while len(found) < k:
        need = k - len(found)
        if pos + need > len(u):
            raise _Short(pos + need - len(u))
        p[found] = 0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        new = cdf.searchsorted(u[pos : pos + need], side="right")
        pos += need
        _, first = np.unique(new, return_index=True)
        first.sort()
        found += new[first].tolist()
    return found, pos


def _walk(u: list[float], pos: int, count: int, tables, masks: list[int]) -> tuple[int, int]:
    """Read up to `count` flip patterns from the uniforms `u[pos:]`.

    Per pattern, in generator order: one uniform for the multiplicity
    bucket; `binomial(4, 0.2)` for bucket 2 (three or more bits); `k`
    uniforms for the bits; and, only if those hit a bit twice, one round
    of uniforms per missing bit until `k` are distinct.  Each mask is
    appended to `masks`.

    Returns `(pos, short)`.  When `u` runs out mid-pattern, `pos` is where
    that pattern starts and `short` how many more uniforms it needs at
    least; the caller draws them and walks the pattern again from `pos`.
    Otherwise `short` is 0.
    """
    mult_cdf, bit_cdf, support, weights = tables
    end = len(u)
    try:
        for _ in range(count):
            start = pos
            if pos + 2 > end:  # a bucket and at least one bit
                raise _Short(pos + 2 - end)
            bucket = bisect_right(mult_cdf, u[pos])
            if bucket == 0:
                masks.append(_BIT[bisect_right(bit_cdf, u[pos + 1])])
                pos += 2
                continue
            if bucket == 1:
                k, pos = 2, pos + 1
            else:
                x, pos = _binomial(u, pos + 1)
                k = 3 + x
            k = min(k, support)
            if pos + k > end:
                raise _Short(pos + k - end)
            bits = [bisect_right(bit_cdf, v) for v in u[pos : pos + k]]
            pos += k
            mask = 0
            for b in bits:
                mask |= 1 << b
            if mask.bit_count() < k:
                found, pos = _later_rounds(weights, list(dict.fromkeys(bits)), k, u, pos)
                mask = sum(1 << b for b in found)
            masks.append(mask)
    except _Short as short:
        return start, short.need
    return pos, 0


class _Words:
    """A Philox generator's next words, read as its scalar draws read them.

    `u` holds the words drawn and not yet dropped, as `random()` doubles,
    and `pos` the next one to read.  With `halves`, for callers that make
    bounded draws, `w` holds the same words raw, and `has` and `half`
    mirror the generator's half-word buffer (`has_uint32`, `uinteger`);
    without, a block is drawn by `random()` itself, which is cheaper than
    converting raw words.

    `later` is how many words the draws after the one in hand are sure to
    consume.  A top-up draws what the draw in hand still needs plus
    `later`, capped at `_BLOCK`, so the generator never runs ahead of the
    calls replayed; the caller keeps `later` current.  `close` writes the
    half-word buffer back.
    """

    def __init__(self, rng: np.random.Generator, later: int = 0, halves: bool = False):
        self._rng = rng
        self.later = later
        self.u: list[float] = []
        self.pos = 0
        self.w = None
        if halves:
            state = rng.bit_generator.state
            self.has, self.half = bool(state["has_uint32"]), state["uinteger"]
            self.w = np.empty(0, dtype=np.uint64)

    def top_up(self, need: int):
        """Drop the words read, then draw `need + later` more, at most `_BLOCK`."""
        m = min(need + self.later, _BLOCK)
        if self.w is None:
            block = self._rng.random(m)
        else:
            raw = self._rng.bit_generator.random_raw(m)
            self.w = np.concatenate((self.w[self.pos :], raw))
            block = (raw >> 11) * 2.0**-53
        self.u = self.u[self.pos :] + block.tolist()
        self.pos = 0

    def bounded(self, r: int) -> int:
        """`integers(0, r, endpoint=True, dtype=np.uint32)` for `r < 2**32 - 1`."""
        if r == 0:
            return 0
        threshold = (_M32 - r) % (r + 1)
        while True:
            if self.has:
                self.has = False
                x = self.half
            else:
                if self.pos == len(self.u):
                    self.top_up(1)
                word = int(self.w[self.pos])
                self.pos += 1
                x, self.half, self.has = word & _M32, word >> 32, True
            m = x * (r + 1)
            if m & _M32 >= threshold:
                return m >> 32

    def choice(self, n: int, k: int) -> list[int]:
        """`sorted(choice(n, k, replace=False))`, by Floyd's algorithm and
        the shuffle after it; `n` above `_FLOYD_MAX` is refused."""
        if n > _FLOYD_MAX:
            raise InvariantError(f"a population of {n} is past Floyd's range ({_FLOYD_MAX})")
        chosen: set[int] = set()
        for j in range(n - k, n):
            val = self.bounded(j)
            chosen.add(j if val in chosen else val)
        for i in range(k - 1, 0, -1):
            self.bounded(i)
        return sorted(chosen)

    def masks(self, tables, count: int) -> list[int]:
        """The masks of `count` flip patterns from the core's `tables`."""
        masks: list[int] = []
        while True:
            self.pos, short = _walk(self.u, self.pos, count - len(masks), tables, masks)
            if not short:
                return masks
            # The pattern in hand needs `short` more; each one after it, 2.
            self.top_up(short + 2 * (count - len(masks) - 1))

    def close(self):
        """Leave the half-word buffer in the generator as the draws left it."""
        bg = self._rng.bit_generator
        state = bg.state
        state["has_uint32"], state["uinteger"] = int(self.has), self.half
        bg.state = state


def draw_flip_masks(
    profile: ProcessorProfile, core: int, n: int, rng: np.random.Generator
) -> list[int]:
    """The masks of `n` consecutive `draw_flip_pattern` calls, as one block.

    `rng` ends in the state those calls leave it in: the block draws at
    most `_BLOCK` words at a time, and never more than the patterns still
    to walk are sure to consume.
    """
    return _Words(rng).masks(profile._flip_tables[profile.check_core(core)], n)


def draw_fault_sets(
    profile: ProcessorProfile, core: int, n: int, ks: list[int], rng: np.random.Generator
) -> list[list[tuple[int, int]]]:
    """Per `k` in `ks`, which `k` of `n` events fault and their flip masks.

    Each entry is `(event, mask)` pairs in event order: the events of
    `sorted(rng.choice(n, k, replace=False))`, then one
    `draw_flip_pattern` per event in that order, exactly as those calls
    would consume `rng`.  `n` is at most `_FLOYD_MAX`.
    """
    tables = profile._flip_tables[profile.check_core(core)]
    words = _Words(rng, later=2 * sum(ks), halves=True)  # a bucket and a bit per pattern
    out = []
    for k in ks:
        events = words.choice(n, k)
        words.later -= 2 * k
        out.append(list(zip(events, words.masks(tables, k))))
    words.close()
    return out


def draw_flip_pattern(
    profile: ProcessorProfile, core: int, word_index: int, rng: np.random.Generator
) -> BitFlipPattern:
    """Sample a flip pattern from the core's multiplicity and affinity tables.

    Generator consumption is `_walk`'s, pinned to `choice(3, p=...)`,
    `binomial(4, 0.2)` for bucket 2, then `choice(128, size=k,
    replace=False, p=...)`; the oracle tests in `tests/test_processor.py`
    hold the two equal, generator state included.
    """
    (mask,) = draw_flip_masks(profile, core, 1, rng)
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return BitFlipPattern(word_index, frozenset(bits))


def sample_fault(
    profile: ProcessorProfile,
    state: PlatformState,
    core: int,
    event: EligibleStoreEvent,
    rng: np.random.Generator,
) -> BitFlipPattern | None:
    """Does this eligible store retire corrupted?

    Draw order per call: slice noise, fault uniform, then (on a hit) the
    multiplicity bucket and bit positions.  Normal and corrected regions
    never fault; below the window the crash process dominates and silent
    data corruption is not modeled.
    """
    core = profile.check_core(core)
    noise = rng.uniform(-profile.noise_mv, profile.noise_mv)
    v_eff = state.nominal_voltage_mv() + noise
    temp = float(state.core_temp_c[core])
    p = event_fault_probability(
        profile,
        core,
        state.pstate,
        event.scenario,
        state.stressor_fault_multiplier,
        v_eff,
        temp,
    )
    if p <= 0.0 or rng.uniform() >= p:
        return None
    return draw_flip_pattern(profile, core, event.word_index, rng)


def crash_kind_weights(ratio: int) -> np.ndarray:
    """Relative weights for (kernel exception, freeze, hard crash).

    Low ratios die softly; past the pivot the hard-crash term grows
    quadratically and overtakes the recoverable kinds.
    """
    rn = ratio / _KIND_PIVOT_RATIO
    weights = np.array([2.2 / rn, 0.5, rn * rn])
    return weights / weights.sum()


def draw_crash_kind(ratio: int, rng: np.random.Generator) -> CrashKind:
    """Which way the platform dies at this ratio: one weighted draw."""
    return CrashKind(_draw_index(_cdf(crash_kind_weights(ratio)), rng))


def crash_probability_per_slice(
    profile: ProcessorProfile, ratio: int, depth_below_window_mv: float
) -> float:
    """Per-slice crash chance at a given depth below the instability line."""
    if depth_below_window_mv < 0.0:
        return 0.0
    p = profile.crash.rate_per_slice
    p *= 1.0 + profile.crash.depth_slope_per_mv * depth_below_window_mv
    p *= 0.5 + 0.5 * ratio / 32.0
    return min(p, 1.0)


def sample_crash(
    profile: ProcessorProfile,
    state: PlatformState,
    rng: np.random.Generator,
    core: int | None = None,
    v_eff_mv: float | None = None,
) -> CrashKind | None:
    """One slice of the crash process on the loaded core.

    Only a core actually executing work exercises critical paths, so the
    check runs against the victim core's boundary unless told otherwise.
    Returns None everywhere above the instability line.
    """
    if core is None:
        core = state.victim_physical
        if core is None:
            core = 0
    core = profile.check_core(core)
    if v_eff_mv is None:
        v_eff_mv = state.nominal_voltage_mv() + rng.uniform(-profile.noise_mv, profile.noise_mv)
    point = profile.pstate_point(state.pstate)
    top = effective_window_top_mv(profile, core, state.pstate, float(state.core_temp_c[core]))
    depth = (top - point.exploit_window_mv) - v_eff_mv
    if depth < 0.0:
        return None
    p = crash_probability_per_slice(profile, point.ratio, depth)
    if rng.uniform() >= p:
        return None
    return draw_crash_kind(point.ratio, rng)


# ---------------------------------------------------------------------------
# Temperature


def core_temp_targets(state: PlatformState) -> np.ndarray:
    """Equilibrium temperature per physical core under the current roles.

    Idle cores settle at ambient, the attack core barely above it, and the
    victim core at the pstate's reference temperature plus whatever the
    stressor on its logical partner adds.
    """
    profile = state.profile
    point = profile.pstate_point(state.pstate)
    targets = np.full(profile.physical_cores, profile.ambient_temp_c)
    for logical, role in enumerate(state.assignment):
        phys = state.physical_of(logical)
        if role == ROLE_ATTACKER:
            targets[phys] = max(targets[phys], profile.ambient_temp_c + 1.0)
        elif role == ROLE_VICTIM:
            victim_target = point.reference_temp_c + state.stressor_temp_boost_c
            targets[phys] = max(targets[phys], victim_target)
    return targets
