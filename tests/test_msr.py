"""Codec tests: frozen words, exhaustive round-trips, field isolation, and
the contract that every `Record` keeps."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import voltlab
from voltlab.isa import Imm, LabelRef, Mem, Reg, parse_program
from voltlab.mca import MceKind, MceRecord
from voltlab.msr import (
    IA32_HWP_REQUEST,
    IA32_PERF_CTL,
    MSR_MISC_PWR_MGMT,
    OC_MAILBOX_MSR,
    MailboxCommand,
    MailboxOp,
    MsrWrite,
    PState,
    PStateInterface,
    Record,
    VoltageDomain,
    VoltageMode,
    decode_mailbox,
    encode_mailbox,
    encode_offset,
    plan_pstate_request,
    pstate_frequency_mhz,
)
from voltlab.errors import FormatError, RangeError
from voltlab.orchestrator import ProbeReport, SystemConfig, VoltagePlan
from voltlab.processor import BitFlipPattern, CrashKind, load_profile
from voltlab.scanner import PatternHit, PatternKind
from voltlab.victims import STRESSORS, CampaignResult, FaultStats, PlatformState, RunOutcome

# Frozen reference word: core-domain write, offset mode, -100 mV.
MINUS_100MV_WORD = 0x80000011F3800000


def test_encode_minus_100mv_is_bit_exact():
    assert encode_offset(VoltageDomain.CORES, -100) == MINUS_100MV_WORD


def test_decode_inverts_reference_word():
    cmd = decode_mailbox(MINUS_100MV_WORD)
    assert cmd.domain == VoltageDomain.CORES
    assert cmd.op == MailboxOp.WRITE_VOLTAGE
    assert cmd.mode == VoltageMode.OFFSET
    assert cmd.offset_mv == -100


@pytest.mark.parametrize(
    "offset_mv,expected_field",
    [
        # Independently computed 11-bit two's complement images.
        (0, 0x000),
        (1, 0x001),
        (-1, 0x7FF),
        (-100, 0x79C),
        (1023, 0x3FF),
        (-1024, 0x400),
    ],
)
def test_offset_field_twos_complement(offset_mv, expected_field):
    word = encode_offset(VoltageDomain.CORES, offset_mv)
    assert (word >> 21) & 0x7FF == expected_field


def test_round_trip_every_offset_and_domain():
    for domain in VoltageDomain:
        for op in MailboxOp:
            for offset in range(-1024, 1024):
                word = encode_mailbox(
                    MailboxCommand(domain, op, VoltageMode.OFFSET, offset_mv=offset)
                )
                back = decode_mailbox(word)
                assert back.domain == domain
                assert back.op == op
                assert back.mode == VoltageMode.OFFSET
                assert back.offset_mv == offset


def test_round_trip_every_static_level():
    for units in range(0, 2048):
        word = encode_mailbox(
            MailboxCommand(
                VoltageDomain.CORES,
                MailboxOp.WRITE_VOLTAGE,
                VoltageMode.STATIC,
                static_units=units,
            )
        )
        back = decode_mailbox(word)
        assert back.mode == VoltageMode.STATIC
        assert back.static_units == units


def test_static_units_are_1024ths_of_a_volt():
    cmd = MailboxCommand(
        VoltageDomain.CORES, MailboxOp.WRITE_VOLTAGE, VoltageMode.STATIC, static_units=1024
    )
    assert cmd.static_volts() == 1.0
    assert decode_mailbox(encode_mailbox(cmd)).static_volts() == 1.0


@pytest.mark.parametrize("offset_mv", [-1025, 1024, 5000, -99999])
def test_offset_out_of_range_rejected(offset_mv):
    with pytest.raises(RangeError):
        encode_offset(VoltageDomain.CORES, offset_mv)


@pytest.mark.parametrize("units", [-1, 2048, 4095])
def test_static_out_of_range_rejected(units):
    with pytest.raises(RangeError):
        encode_mailbox(
            MailboxCommand(
                VoltageDomain.CORES,
                MailboxOp.WRITE_VOLTAGE,
                VoltageMode.STATIC,
                static_units=units,
            )
        )


@pytest.mark.parametrize(
    "word",
    [
        0x0000001100000000,  # bit 63 clear
        0x8000004500000000,  # command 0x45 unknown
        0x8000071100000000,  # domain 0x7 unknown
        0x8000001100000001,  # reserved low bits set
        0xC000001100000000,  # reserved high bit set
    ],
)
def test_decode_rejects_malformed_words(word):
    with pytest.raises(FormatError):
        decode_mailbox(word)


def test_field_isolation():
    """Changing exactly one field flips bits only inside that field's lane."""
    base = MailboxCommand(
        VoltageDomain.CORES, MailboxOp.WRITE_VOLTAGE, VoltageMode.OFFSET, offset_mv=-100
    )
    base_word = encode_mailbox(base)

    domain_diff = base_word ^ encode_mailbox(
        MailboxCommand(VoltageDomain.LLC_RING, base.op, base.mode, offset_mv=-100)
    )
    assert domain_diff and domain_diff == domain_diff & (0x7 << 40)

    op_diff = base_word ^ encode_mailbox(
        MailboxCommand(base.domain, MailboxOp.READ_VOLTAGE, base.mode, offset_mv=-100)
    )
    assert op_diff and op_diff == op_diff & (0xFF << 32)

    offset_diff = base_word ^ encode_mailbox(
        MailboxCommand(base.domain, base.op, base.mode, offset_mv=-150)
    )
    assert offset_diff and offset_diff == offset_diff & (0x7FF << 21)


@pytest.mark.parametrize(
    "ratio,mhz",
    [(0x08, 800), (0x10, 1600), (0x1B, 2700), (0x20, 3200), (0x24, 3600), (0x2A, 4200)],
)
def test_pstate_frequency(ratio, mhz):
    assert pstate_frequency_mhz(PState(ratio)) == mhz


def test_pstate_ratio_zero_rejected():
    with pytest.raises(RangeError):
        plan_pstate_request(PState(0x00), PStateInterface.EIST)


def test_eist_plan():
    writes = plan_pstate_request(PState(0x1B), PStateInterface.EIST)
    assert [w.address for w in writes] == [MSR_MISC_PWR_MGMT, IA32_PERF_CTL]
    assert writes[0].value & 0x1
    assert (writes[1].value >> 8) & 0xFF == 0x1B


def test_hwp_plan_collapses_min_max_desired():
    (write,) = plan_pstate_request(PState(0x20), PStateInterface.HWP)
    assert write.address == IA32_HWP_REQUEST
    assert write.value & 0xFF == 0x20          # minimum
    assert (write.value >> 8) & 0xFF == 0x20   # maximum
    assert (write.value >> 16) & 0xFF == 0x20  # desired


def test_mailbox_msr_write_requires_busy_bit():
    with pytest.raises(RangeError):
        MsrWrite(OC_MAILBOX_MSR, 0x0000001100000000)
    MsrWrite(OC_MAILBOX_MSR, MINUS_100MV_WORD)  # fine


def test_msr_records_default_and_round_trip():
    cmd = MailboxCommand(VoltageDomain.CORES, MailboxOp.WRITE_VOLTAGE, VoltageMode.OFFSET)
    assert (cmd.offset_mv, cmd.static_units) == (0, 0)
    assert cmd == decode_mailbox(encode_mailbox(cmd))
    assert PState(0x1B) == PState(0x1B, 100) != PState(0x1B, 133)
    assert repr(MsrWrite(0x199, 0x1B00)) == "MsrWrite(address=409, value=6912)"


# Every module loaded, so that `Record.__subclasses__()` sees every record.
for _module in pkgutil.iter_modules(voltlab.__path__):
    importlib.import_module(f"voltlab.{_module.name}")

_FAULTS = FaultStats(2, 1000, 10, (0,) * 16, {1: 5, 2: 3, 4: 2})
_PROGRAM = parse_program("top:\nvpxor %xmm0, %xmm1, %xmm2\ncmpjne %rax, $0, top\nhalt\n")

# One sample per record class, by class name; a record missing here fails.
RECORD_SAMPLES = {
    "MailboxCommand": lambda: MailboxCommand(
        VoltageDomain.CORES, MailboxOp.WRITE_VOLTAGE, VoltageMode.OFFSET, offset_mv=-100
    ),
    "PState": lambda: PState(0x1B),
    "MsrWrite": lambda: MsrWrite(0x199, 0x1B00),
    "Reg": lambda: Reg("xmm0"),
    "Mem": lambda: Mem("rsp", -16),
    "Imm": lambda: Imm(3),
    "LabelRef": lambda: LabelRef("top"),
    "MiniInsn": lambda: _PROGRAM.instructions[1],
    "MiniProgram": lambda: _PROGRAM,
    "PStatePoint": lambda: load_profile("i7-7700k").pstate_point("0x1b"),
    "BitFlipPattern": lambda: BitFlipPattern(2, 1 << 5 | 1 << 17),
    "PatternHit": lambda: PatternHit(PatternKind.VP1, 0, 2),
    "MceRecord": lambda: MceRecord(5, 1, MceKind.CORRECTED),
    "StressorSpec": lambda: STRESSORS["shift_loop"],
    "PlatformState": lambda: PlatformState(
        load_profile("i7-7700k"), "0x1b", 1, -250, STRESSORS["shift_loop"], 7
    ),
    "RunOutcome": lambda: RunOutcome.crashed(CrashKind.FREEZE, 12),
    "FaultStats": lambda: _FAULTS,
    "CampaignResult": lambda: CampaignResult.from_runs(1, "poc", [(3, 10), (1, 10)], crashes=1),
    "VoltagePlan": lambda: VoltagePlan("0x1b", (0.7, 0.71), (-260, -250), 2),
    "ProbeReport": lambda: ProbeReport((_FAULTS,)),
    "SystemConfig": lambda: SystemConfig((0, 4), (1, 5), ("intel_pstate",), "0x1b"),
}


@pytest.mark.parametrize(
    "cls", sorted(Record.__subclasses__(), key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_records_are_frozen_and_compare_by_class_and_fields(cls):
    record = RECORD_SAMPLES[cls.__name__]()
    assert type(record) is cls
    values = tuple(getattr(record, name) for name in cls.__slots__)

    with pytest.raises(AttributeError):
        record.extra = 1
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls.__slots__) == values

    twin = type("Twin", (cls,), {"__slots__": ()})(*values)
    assert twin != record and record != values
    for name in cls.__slots__:
        changed = copy.copy(record)
        object.__setattr__(changed, name, object())
        assert changed != record

    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, values))
    assert repr(record) == f"{cls.__name__}({fields})"

    clones = copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
    for clone in clones:
        assert type(clone) is cls and clone == record
    try:
        digest = hash(record)
    except TypeError:  # only when a field is unhashable, like a frozen dataclass
        with pytest.raises(TypeError):
            hash(values)
    else:
        assert all(hash(clone) == digest for clone in clones)
