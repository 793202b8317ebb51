"""Static scan for fault-susceptible vector patterns.

Two shapes matter: a lane-parallel logic op (xor/and) whose result goes
to memory shortly after, and the same with a lane-parallel add.  The scan
is over the instruction stream in program order, ignoring control flow,
exactly like scanning a disassembled binary.  A hit requires the stored
register to be the op's destination and to survive untouched across the
gap; an intervening redefinition breaks the data dependency that makes
the pattern exploitable.
"""

from __future__ import annotations

import json
from enum import Enum

from .errors import InvariantError
from .isa import MiniProgram, Opcode, Reg, VECTOR_STORES
from .msr import Record

# An op and its store may be separated by at most this many instructions.
# Observed instances sit at distances 0 to 2; one extra for slack.
ADJACENCY_LIMIT = 3

VP1_OPS = frozenset({Opcode.VPXOR, Opcode.VPAND})
VP2_OPS = frozenset({Opcode.VPADDQ})

# Opcodes that write a vector register name their destination last.
_VREG_WRITERS = frozenset(
    {Opcode.VPXOR, Opcode.VPAND, Opcode.VPADDQ, Opcode.VPSLLQ, Opcode.VMOVDQU_LOAD}
)


class PatternKind(Enum):
    VP1 = "VP1"  # parallel logic feeding a store
    VP2 = "VP2"  # parallel add feeding a store


class PatternHit(Record):
    __slots__ = ("kind", "op_index", "store_index")

    def __init__(self, kind: PatternKind, op_index: int, store_index: int):
        if store_index <= op_index:
            raise InvariantError("the store follows the op")
        gap = store_index - op_index - 1
        if gap > ADJACENCY_LIMIT:
            raise InvariantError(f"gap {gap} beyond adjacency limit")
        self._set(kind, op_index, store_index)

    @property
    def gap(self) -> int:
        return self.store_index - self.op_index - 1

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "op_index": self.op_index,
            "store_index": self.store_index,
            "gap": self.gap,
        }


def written_vreg(insn) -> str | None:
    """Vector register this instruction redefines, if any."""
    if insn.opcode in _VREG_WRITERS:
        dst = insn.operands[-1]
        if isinstance(dst, Reg) and dst.is_vector:
            return dst.name
    return None


def stored_vreg(insn) -> str | None:
    if insn.opcode in VECTOR_STORES:
        return insn.operands[0].name
    return None


def scan(program: MiniProgram) -> list[PatternHit]:
    """All (op, store) pairs matching a susceptible pattern, program order.

    Single forward pass: track, per vector register, the index and kind of
    the last pattern-relevant op that defined it; a store within the
    adjacency limit completes a hit.  Equivalent to brute-forcing all
    pairs (`tests/slice_reference.scan_brute`), but linear.
    """
    hits: list[PatternHit] = []
    # register -> (op_index, kind); dropped on redefinition
    live: dict[str, tuple[int, PatternKind]] = {}
    for index, insn in enumerate(program.instructions):
        src = stored_vreg(insn)
        if src is not None and src in live:
            op_index, kind = live[src]
            if index - op_index - 1 <= ADJACENCY_LIMIT:
                hits.append(PatternHit(kind, op_index, index))
        written = written_vreg(insn)
        if written is not None:
            if insn.opcode in VP1_OPS:
                live[written] = (index, PatternKind.VP1)
            elif insn.opcode in VP2_OPS:
                live[written] = (index, PatternKind.VP2)
            else:
                live.pop(written, None)
    return hits


def hits_to_json(hits: list[PatternHit]) -> str:
    return json.dumps([h.to_json() for h in hits], indent=2, sort_keys=True)
