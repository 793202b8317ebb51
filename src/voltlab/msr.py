"""Power-management MSR encoding.

Bit-exact codec for the overclocking mailbox at MSR 0x150 plus the small
helpers needed to pin a core to a fixed frequency before undervolting.

Mailbox word layout (64 bits)::

    [63]      always 1 for any mailbox transaction
    [62:43]   reserved, zero
    [42:40]   voltage domain  (0x0 cores, 0x1 core gpu, 0x2 llc/ring, 0x3 sa)
    [39:32]   command         (0x10 read voltage, 0x11 write voltage)
    [31:21]   offset, 11-bit two's complement, 1 LSB = 1 mV
    [20]      mode            (0 offset, 1 static)
    [19:8]    static target, volts = value / 1024
    [7:0]     reserved, zero

A -100 mV offset write to the core domain therefore assembles to
0x80000011F3800000: sign-extended 0x79C shifted into [31:21] with the mode
bit clear.
"""

from __future__ import annotations

from enum import IntEnum

from .errors import FormatError, RangeError

_setattr = object.__setattr__  # for `Record._set`: a lookup per field costs more than the write
OC_MAILBOX_MSR = 0x150

# P-state plumbing (see plan_pstate_request)
MSR_MISC_PWR_MGMT = 0x1AA   # bit 0 enables software EIST control
IA32_PERF_CTL = 0x199       # target ratio in bits [15:8]
IA32_HWP_REQUEST = 0x774    # min [7:0], max [15:8], desired [23:16]

# Interference knobs touched during system setup
IA32_MISC_ENABLE = 0x1A0        # bit 38 disengages turbo
IA32_THERM_INTERRUPT = 0x19B    # zero masks thermal interrupts

MAILBOX_BUSY_BIT = 1 << 63

OFFSET_SHIFT = 21
OFFSET_BITS = 11
OFFSET_MIN_MV = -1024
OFFSET_MAX_MV = 1023

MODE_BIT = 1 << 20

STATIC_SHIFT = 8
STATIC_MASK = 0xFFF         # [19:8], 12 bits wide on decode
STATIC_MAX = 2047           # encode ceiling: 2047/1024 V, just under 2 V

DOMAIN_SHIFT = 40
DOMAIN_MASK = 0x7
COMMAND_SHIFT = 32
COMMAND_MASK = 0xFF

RESERVED_MASK = (
    ((1 << 63) - 1)
    ^ (DOMAIN_MASK << DOMAIN_SHIFT)
    ^ (COMMAND_MASK << COMMAND_SHIFT)
    ^ (((1 << OFFSET_BITS) - 1) << OFFSET_SHIFT)
    ^ MODE_BIT
    ^ (STATIC_MASK << STATIC_SHIFT)
)


class VoltageDomain(IntEnum):
    CORES = 0x0
    CORE_GPU = 0x1
    LLC_RING = 0x2
    SYSTEM_AGENT = 0x3


class MailboxOp(IntEnum):
    READ_VOLTAGE = 0x10
    WRITE_VOLTAGE = 0x11


class VoltageMode(IntEnum):
    OFFSET = 0
    STATIC = 1


class PStateInterface(IntEnum):
    EIST = 0
    HWP = 1


class Record:
    """The one base of voltlab's value records.  A record's fields are its
    `__slots__`; its `__init__` checks its arguments, then sets each field
    once through `_set`.  It is immutable from then on: assigning or deleting
    an attribute raises AttributeError.  A record equals only a record of
    its own class with equal fields (never a tuple), hashes by its fields,
    reprs as `Name(field=value, ...)`, and copies and pickles by them."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class MailboxCommand(Record):
    """One decoded (or to-be-encoded) mailbox transaction.

    offset_mv is meaningful in OFFSET mode, static_units in STATIC mode.
    Range checks happen at encode time so that decode can faithfully report
    whatever a raw word contains.
    """

    __slots__ = ("domain", "op", "mode", "offset_mv", "static_units")

    def __init__(
        self, domain: VoltageDomain, op: MailboxOp, mode: VoltageMode,
        offset_mv: int = 0, static_units: int = 0,
    ):
        self._set(domain, op, mode, offset_mv, static_units)

    def static_volts(self) -> float:
        return self.static_units / 1024.0


class PState(Record):
    """A frequency operating point: ratio x base clock."""

    __slots__ = ("ratio", "base_clock_mhz")

    def __init__(self, ratio: int, base_clock_mhz: int = 100):
        if not 1 <= ratio <= 255:
            raise RangeError(f"pstate ratio {ratio:#x} outside 1..=0xff")
        if base_clock_mhz <= 0:
            raise RangeError("base clock must be positive")
        self._set(ratio, base_clock_mhz)


class MsrWrite(Record):
    """A single (address, value) pair destined for wrmsr."""

    __slots__ = ("address", "value")

    def __init__(self, address: int, value: int):
        if not 0 <= value < (1 << 64):
            raise RangeError(f"MSR value {value:#x} is not a u64")
        if address == OC_MAILBOX_MSR and not value & MAILBOX_BUSY_BIT:
            raise RangeError("mailbox writes must carry bit 63")
        self._set(address, value)


def encode_mailbox(cmd: MailboxCommand) -> int:
    """Assemble a 64-bit mailbox word.  Raises RangeError on bad payloads."""
    word = MAILBOX_BUSY_BIT
    word |= (int(cmd.domain) & DOMAIN_MASK) << DOMAIN_SHIFT
    word |= (int(cmd.op) & COMMAND_MASK) << COMMAND_SHIFT
    if cmd.mode == VoltageMode.OFFSET:
        if not OFFSET_MIN_MV <= cmd.offset_mv <= OFFSET_MAX_MV:
            raise RangeError(
                f"offset {cmd.offset_mv} mV outside {OFFSET_MIN_MV}..={OFFSET_MAX_MV}"
            )
        word |= (cmd.offset_mv & ((1 << OFFSET_BITS) - 1)) << OFFSET_SHIFT
    else:
        if not 0 <= cmd.static_units <= STATIC_MAX:
            raise RangeError(
                f"static target {cmd.static_units} outside 0..={STATIC_MAX}"
            )
        word |= MODE_BIT
        word |= cmd.static_units << STATIC_SHIFT
    return word


def decode_mailbox(word: int) -> MailboxCommand:
    """Disassemble a mailbox word back into fields.

    Raises FormatError when bit 63 is clear, reserved bits are set, or the
    domain/command values are not ones this codec emits.
    """
    if not 0 <= word < (1 << 64):
        raise FormatError(f"{word:#x} is not a u64")
    if not word & MAILBOX_BUSY_BIT:
        raise FormatError("bit 63 clear: not a mailbox transaction")
    if word & RESERVED_MASK:
        raise FormatError(f"reserved bits set in {word:#018x}")

    domain_raw = (word >> DOMAIN_SHIFT) & DOMAIN_MASK
    try:
        domain = VoltageDomain(domain_raw)
    except ValueError:
        raise FormatError(f"unknown voltage domain {domain_raw:#x}") from None

    op_raw = (word >> COMMAND_SHIFT) & COMMAND_MASK
    try:
        op = MailboxOp(op_raw)
    except ValueError:
        raise FormatError(f"unknown mailbox command {op_raw:#04x}") from None

    if word & MODE_BIT:
        static_units = (word >> STATIC_SHIFT) & STATIC_MASK
        return MailboxCommand(domain, op, VoltageMode.STATIC, static_units=static_units)

    raw = (word >> OFFSET_SHIFT) & ((1 << OFFSET_BITS) - 1)
    offset_mv = raw - (1 << OFFSET_BITS) if raw & (1 << (OFFSET_BITS - 1)) else raw
    return MailboxCommand(domain, op, VoltageMode.OFFSET, offset_mv=offset_mv)


def encode_offset(domain: VoltageDomain, offset_mv: int) -> int:
    """Shorthand for the common case: a WRITE_VOLTAGE offset word."""
    return encode_mailbox(
        MailboxCommand(domain, MailboxOp.WRITE_VOLTAGE, VoltageMode.OFFSET, offset_mv=offset_mv)
    )


def pstate_frequency_mhz(pstate: PState) -> int:
    """Operating frequency in MHz: ratio times base clock."""
    return pstate.ratio * pstate.base_clock_mhz


def plan_pstate_request(pstate: PState, interface: PStateInterface) -> list[MsrWrite]:
    """MSR writes that pin every core to `pstate`.

    EIST: first claim software control via MSR_MISC_PWR_MGMT bit 0, then
    program the target ratio into IA32_PERF_CTL[15:8].  HWP: collapse the
    min/max/desired triple in IA32_HWP_REQUEST to one ratio.
    """
    ratio = pstate.ratio
    if interface == PStateInterface.EIST:
        return [
            MsrWrite(MSR_MISC_PWR_MGMT, 0x1),
            MsrWrite(IA32_PERF_CTL, ratio << 8),
        ]
    if interface == PStateInterface.HWP:
        return [MsrWrite(IA32_HWP_REQUEST, ratio | (ratio << 8) | (ratio << 16))]
    raise RangeError(f"unknown pstate interface {interface!r}")
