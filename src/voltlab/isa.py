"""A small AT&T-flavored vector ISA: parser and interpreter.

Just enough surface to express the victim and stressor kernels this
laboratory studies: 128-bit loads/stores, the lane-parallel xor/and/add/
shift family, a non-temporal store with its fence, a scalar stack, and a
fused compare-and-branch.  Programs are plain text, one instruction per
line, `name:` labels, `#` or `//` comments, AT&T operand order (source
first, destination last).

The interpreter is pure: same program, same inputs, same outputs.  Fault
injection enters through `store_hook`, which sees every vector store about
to retire and may replace the stored value; everything else is exact.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from importlib import resources
from typing import NamedTuple

from .errors import InterpreterError, ParseError
from .msr import Record

WORD_BYTES = 16
LANE_MASK = (1 << 64) - 1
WORD_MASK = (1 << 128) - 1

VECTOR_REGS = frozenset(f"xmm{i}" for i in range(16))
SCALAR_REGS = frozenset(
    ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp"]
    + [f"r{i}" for i in range(8, 16)]
)
# Zeroed register files in name order, copied by every run.
_VECTOR_ZERO = dict.fromkeys(sorted(VECTOR_REGS), 0)
_SCALAR_ZERO = dict.fromkeys(sorted(SCALAR_REGS), 0)

DEFAULT_MEMORY_BYTES = 4096
DEFAULT_MAX_SLICES = 100_000


class Opcode(Enum):
    VMOVDQU_LOAD = "vmovdqu_load"
    VMOVDQU_STORE = "vmovdqu_store"
    VPXOR = "vpxor"
    VPAND = "vpand"
    VPADDQ = "vpaddq"
    VPSLLQ = "vpsllq"
    MOVNT_STORE = "movnt_store"
    SFENCE = "sfence"
    PUSH = "push"
    POP = "pop"
    CMP_BRANCH = "cmp_branch"
    JMP = "jmp"
    HALT = "halt"


VECTOR_STORES = frozenset({Opcode.VMOVDQU_STORE, Opcode.MOVNT_STORE})
# `interpret` compares with these globals, cheaper than `Opcode.X` lookups; in definition order.
_LOAD, _STORE, _XOR, _AND, _ADDQ, _SLLQ, _NT_STORE, _SFENCE, _PUSH, _POP, _CMP, _JMP, _HALT = Opcode


class Reg(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._set(name)

    @property
    def is_vector(self) -> bool:
        return self.name in VECTOR_REGS


class Mem(Record):
    __slots__ = ("base", "disp")  # base: scalar register, or None for absolute

    def __init__(self, base: str | None, disp: int = 0):
        self._set(base, disp)


class Imm(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self._set(value)


class LabelRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._set(name)


class MiniInsn(Record):
    # branch_on_equal, cmp_branch only: jump when equal (cmpjeq) or different (cmpjne)
    __slots__ = ("opcode", "operands", "text", "line_no", "branch_on_equal")

    def __init__(
        self, opcode: Opcode, operands: tuple, text: str, line_no: int, branch_on_equal=False
    ):
        self._set(opcode, operands, text, line_no, branch_on_equal)


class MiniProgram(Record):
    __slots__ = ("instructions", "labels", "source_name")

    def __init__(self, instructions: tuple, labels: dict[str, int], source_name: str = "<string>"):
        self._set(instructions, labels, source_name)

    def __len__(self) -> int:
        return len(self.instructions)


class StoreExecution(NamedTuple):
    """One vector store about to retire; hooks may replace the value."""

    insn_index: int
    slice_index: int
    address: int
    value: int


class ExecutionResult(NamedTuple):
    memory: bytearray
    xmm: dict[str, int]
    scalar: dict[str, int]
    slices: int
    halt_index: int | None  # instruction index that stopped the run,
    # len(program) if execution fell off the end, None if budget ran out

    @property
    def halted(self) -> bool:
        return self.halt_index is not None


# ---------------------------------------------------------------------------
# Parsing

_COMMENT = re.compile(r"(#|//).*$")
_LABEL = re.compile(r"^([A-Za-z_.][\w.]*):$")
_MEM = re.compile(r"^(-?(?:0[xX][0-9a-fA-F]+|\d+))?\(%(\w+)\)$")
_INT = re.compile(r"^-?(?:0[xX][0-9a-fA-F]+|\d+)$")


def _parse_operand(token: str, where: str):
    if token.startswith("%"):
        name = token[1:].lower()
        if name not in VECTOR_REGS and name not in SCALAR_REGS:
            raise ParseError(f"{where}: unknown register %{name}")
        return Reg(name)
    if token.startswith("$"):
        try:
            return Imm(int(token[1:], 0))
        except ValueError:
            raise ParseError(f"{where}: bad immediate {token!r}") from None
    m = _MEM.match(token)
    if m:
        disp = int(m.group(1), 0) if m.group(1) else 0
        base = m.group(2).lower()
        if base not in SCALAR_REGS:
            raise ParseError(f"{where}: memory base %{base} is not a scalar register")
        return Mem(base, disp)
    if _INT.match(token):
        return Mem(None, int(token, 0))
    return LabelRef(token)


def _want(kinds, operands, where):
    if len(operands) != len(kinds):
        raise ParseError(f"{where}: expected {len(kinds)} operands, got {len(operands)}")
    for op, kind in zip(operands, kinds):
        if kind == "v":
            if not (isinstance(op, Reg) and op.is_vector):
                raise ParseError(f"{where}: expected a vector register, got {op}")
        elif kind == "s":
            if not (isinstance(op, Reg) and not op.is_vector):
                raise ParseError(f"{where}: expected a scalar register, got {op}")
        elif kind == "m":
            if not isinstance(op, Mem):
                raise ParseError(f"{where}: expected a memory operand, got {op}")
        elif kind == "val":
            if not isinstance(op, (Mem, Reg, Imm)):
                raise ParseError(f"{where}: expected a value operand, got {op}")
            if isinstance(op, Reg) and op.is_vector:
                raise ParseError(f"{where}: comparisons are scalar, got {op}")
        elif kind == "l":
            if not isinstance(op, LabelRef):
                raise ParseError(f"{where}: expected a label, got {op}")


def parse_program(text: str, source_name: str = "<string>") -> MiniProgram:
    instructions: list[MiniInsn] = []
    labels: dict[str, int] = {}
    pending_labels: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if line.endswith(";"):
            line = line[:-1].rstrip()
        if not line:
            continue
        where = f"{source_name}:{line_no}"
        label = _LABEL.match(line)
        if label:
            name = label.group(1)
            if name in labels or name in pending_labels:
                raise ParseError(f"{where}: duplicate label {name!r}")
            pending_labels.append(name)
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = tuple(
            _parse_operand(tok.strip(), where)
            for tok in (parts[1].split(",") if len(parts) > 1 else [])
            if tok.strip()
        )
        insn = _build_insn(mnemonic, operands, line, line_no, where)
        for name in pending_labels:
            labels[name] = len(instructions)
        pending_labels.clear()
        instructions.append(insn)
    for name in pending_labels:
        labels[name] = len(instructions)  # label at end: falls off, halts
    program = MiniProgram(tuple(instructions), labels, source_name)
    _check_jumps(program)
    return program


def _build_insn(mnemonic, operands, text, line_no, where) -> MiniInsn:
    if mnemonic == "vmovdqu":
        if len(operands) == 2 and isinstance(operands[0], Mem):
            _want(("m", "v"), operands, where)
            return MiniInsn(Opcode.VMOVDQU_LOAD, operands, text, line_no)
        _want(("v", "m"), operands, where)
        return MiniInsn(Opcode.VMOVDQU_STORE, operands, text, line_no)
    if mnemonic in ("movntdq", "movntq"):
        _want(("v", "m"), operands, where)
        return MiniInsn(Opcode.MOVNT_STORE, operands, text, line_no)
    if mnemonic in ("vpxor", "vpand", "vpaddq", "vpsllq"):
        _want(("v", "v", "v"), operands, where)
        return MiniInsn(Opcode(mnemonic), operands, text, line_no)  # the value is the mnemonic
    if mnemonic == "sfence":
        _want((), operands, where)
        return MiniInsn(Opcode.SFENCE, operands, text, line_no)
    if mnemonic == "push":
        _want(("s",), operands, where)
        return MiniInsn(Opcode.PUSH, operands, text, line_no)
    if mnemonic == "pop":
        _want(("s",), operands, where)
        return MiniInsn(Opcode.POP, operands, text, line_no)
    if mnemonic in ("cmpjne", "cmpjeq"):
        _want(("val", "val", "l"), operands, where)
        return MiniInsn(
            Opcode.CMP_BRANCH, operands, text, line_no, branch_on_equal=(mnemonic == "cmpjeq")
        )
    if mnemonic == "jmp":
        _want(("l",), operands, where)
        return MiniInsn(Opcode.JMP, operands, text, line_no)
    if mnemonic == "halt":
        _want((), operands, where)
        return MiniInsn(Opcode.HALT, operands, text, line_no)
    raise ParseError(f"{where}: unknown mnemonic {mnemonic!r}")


def _check_jumps(program: MiniProgram) -> None:
    for insn in program.instructions:
        for op in insn.operands:
            if isinstance(op, LabelRef) and op.name not in program.labels:
                raise ParseError(
                    f"{program.source_name}:{insn.line_no}: "
                    f"unresolved label {op.name!r}"
                )


# Alternate lookup keys accepted anywhere a program name is taken.
PROGRAM_ALIASES = {
    "listing1_xor": "vp1_xor_kernel",
    "listing1_add": "vp2_add_kernel",
    "listing2_stressor": "shift_stressor",
    "listing3": "vp1_indirect_store",
    "listing4_poc": "poc_and_branch",
}


def bundled_program_names() -> list[str]:
    pkg = resources.files("voltlab").joinpath("data/programs")
    return sorted(p.name[:-2] for p in pkg.iterdir() if p.name.endswith(".s"))


@functools.cache
def bundled_program(name: str) -> MiniProgram:
    """Parse a bundled program once; later calls return the same object."""
    stem = PROGRAM_ALIASES.get(name, name)
    res = resources.files("voltlab").joinpath(f"data/programs/{stem}.s")
    if not res.is_file():
        raise ParseError(f"no bundled program named {name!r}")
    return parse_program(res.read_text(encoding="utf-8"), source_name=stem)


# ---------------------------------------------------------------------------
# Interpretation


class _SliceError(Exception):
    """An instruction that cannot run; `interpret` names its `source:line`."""


def _read_word(memory, addr: int, width: int) -> int:
    if addr < 0 or addr + width > len(memory):
        raise _SliceError(f"read of {width} bytes at {addr:#x} out of range")
    return int.from_bytes(memory[addr : addr + width], "little")


def _write_word(memory, addr: int, width: int, value: int) -> None:
    if addr < 0 or addr + width > len(memory):
        raise _SliceError(f"write of {width} bytes at {addr:#x} out of range")
    memory[addr : addr + width] = value.to_bytes(width, "little")


def _lanes(value: int) -> tuple[int, int]:
    return value & LANE_MASK, (value >> 64) & LANE_MASK


def _from_lanes(lo: int, hi: int) -> int:
    return (lo & LANE_MASK) | ((hi & LANE_MASK) << 64)


def interpret(
    program: MiniProgram,
    memory: bytes | bytearray | None = None,
    *,
    xmm: dict[str, int] | None = None,
    scalar: dict[str, int] | None = None,
    max_slices: int = DEFAULT_MAX_SLICES,
    store_hook=None,
) -> ExecutionResult:
    """Run a program to halt or slice budget.

    One instruction is one time slice.  `store_hook(StoreExecution) -> int
    or None` sees every vector store in execution order and may replace its
    value; scalar stack traffic is not hooked.
    """
    mem = bytearray(DEFAULT_MEMORY_BYTES) if memory is None else bytearray(memory)
    vregs = _VECTOR_ZERO.copy()
    sregs = _SCALAR_ZERO.copy()
    sregs["rsp"] = len(mem) - WORD_BYTES
    if xmm:
        for name, value in xmm.items():
            if name not in vregs:
                raise InterpreterError(f"no vector register {name!r}")
            vregs[name] = value & WORD_MASK
    if scalar:
        for name, value in scalar.items():
            if name not in sregs:
                raise InterpreterError(f"no scalar register {name!r}")
            sregs[name] = value & LANE_MASK

    def value_of(op) -> int:
        if isinstance(op, Imm):
            return op.value & LANE_MASK
        if isinstance(op, Reg):
            return sregs[op.name]
        return _read_word(mem, sregs[op.base] + op.disp if op.base else op.disp, 8)

    pc = slices = 0
    halt_index: int | None = None
    insns = program.instructions
    n_insns = len(insns)
    try:
        # The branches run in the order the bundled programs need them most.
        while slices < max_slices:
            if pc >= n_insns:
                halt_index = n_insns  # fell off the end
                break
            insn = insns[pc]
            slices += 1
            next_pc = pc + 1
            op = insn.opcode
            if op is _LOAD:
                src, dst = insn.operands
                addr = sregs[src.base] + src.disp if src.base else src.disp
                vregs[dst.name] = _read_word(mem, addr, WORD_BYTES)
            elif op is _STORE or op is _NT_STORE:
                src, dst = insn.operands
                addr = sregs[dst.base] + dst.disp if dst.base else dst.disp
                value = vregs[src.name]
                if store_hook is not None:
                    replaced = store_hook(StoreExecution(pc, slices - 1, addr, value))
                    if replaced is not None:
                        value = replaced & WORD_MASK
                _write_word(mem, addr, WORD_BYTES, value)
            elif op is _CMP:
                lhs, rhs, target = insn.operands
                if (value_of(lhs) == value_of(rhs)) == insn.branch_on_equal:
                    next_pc = program.labels[target.name]
            elif op is _XOR:
                a, b, dst = insn.operands
                vregs[dst.name] = vregs[a.name] ^ vregs[b.name]
            elif op is _AND:
                a, b, dst = insn.operands
                vregs[dst.name] = vregs[a.name] & vregs[b.name]
            elif op is _ADDQ:
                a, b, dst = insn.operands
                alo, ahi = _lanes(vregs[a.name])
                blo, bhi = _lanes(vregs[b.name])
                vregs[dst.name] = _from_lanes(alo + blo, ahi + bhi)
            elif op is _HALT:
                halt_index = pc
                break
            elif op is _PUSH:
                (reg,) = insn.operands
                sregs["rsp"] = (sregs["rsp"] - 8) & LANE_MASK
                _write_word(mem, sregs["rsp"], 8, sregs[reg.name])
            elif op is _POP:
                (reg,) = insn.operands
                sregs[reg.name] = _read_word(mem, sregs["rsp"], 8)
                sregs["rsp"] = (sregs["rsp"] + 8) & LANE_MASK
            elif op is _SLLQ:
                count, src, dst = insn.operands
                c = vregs[count.name] & LANE_MASK
                if c > 63:
                    vregs[dst.name] = 0
                else:
                    lo, hi = _lanes(vregs[src.name])
                    vregs[dst.name] = _from_lanes(lo << c, hi << c)
            elif op is _JMP:
                (target,) = insn.operands
                next_pc = program.labels[target.name]
            elif op is _SFENCE:
                pass  # ordering token; this interpreter is already sequential
            else:  # pragma: no cover
                raise _SliceError(f"unhandled opcode {op}")
            pc = next_pc
    except _SliceError as exc:
        raise InterpreterError(f"{program.source_name}:{insns[pc].line_no}: {exc}") from None

    return ExecutionResult(mem, vregs, sregs, slices, halt_index)
