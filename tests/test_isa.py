"""Parser and interpreter semantics for the mini vector ISA."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltlab.errors import InterpreterError, ParseError, VoltlabError
from voltlab.isa import (
    DEFAULT_MEMORY_BYTES,
    Mem,
    MiniProgram,
    Opcode,
    PROGRAM_ALIASES,
    StoreExecution,
    bundled_program,
    bundled_program_names,
    interpret,
    parse_program,
)
from voltlab.scanner import scan

ONES64 = (1 << 64) - 1
ONES128 = (1 << 128) - 1


def run(text, **kw):
    return interpret(parse_program(text), **kw)


# -- parsing -------------------------------------------------------------


def test_parse_strips_comments_and_semicolons():
    prog = parse_program(
        """
        # hash-style comment
        // slash-style comment
        _top:
            push %r10;
            vpxor %xmm1, %xmm2, %xmm3   # trailing comment
            jmp _top
        """
    )
    assert len(prog) == 3
    assert prog.labels == {"_top": 0}
    assert [i.opcode for i in prog.instructions] == [Opcode.PUSH, Opcode.VPXOR, Opcode.JMP]


def test_vmovdqu_direction_from_operands():
    prog = parse_program("vmovdqu 0x10, %xmm1\nvmovdqu %xmm1, 0x20\n")
    assert prog.instructions[0].opcode is Opcode.VMOVDQU_LOAD
    assert prog.instructions[1].opcode is Opcode.VMOVDQU_STORE


def test_memory_operand_forms():
    prog = parse_program("vmovdqu %xmm0, (%rsp)\nvmovdqu %xmm0, -0x10(%rbp)\nvmovdqu %xmm0, 0x40\n")
    ops = [i.operands[1] for i in prog.instructions]
    assert ops[0] == Mem("rsp", 0)
    assert ops[1] == Mem("rbp", -0x10)
    assert ops[2] == Mem(None, 0x40)


@pytest.mark.parametrize(
    "bad",
    [
        "frobnicate %xmm1",
        "vpxor %xmm1, %xmm2",  # missing destination
        "vmovdqu %rax, %xmm1",  # scalar source for a vector move
        "vmovdqu %xmm1, %xmm2",  # register-to-register move unsupported
        "push %xmm3",  # stack ops are scalar
        "jmp nowhere",  # unresolved label
        "cmpjne %xmm0, $1, _x\n_x:",  # vector register in a comparison
        "vpxor %xmm1, %xmm2, %xmm77",
        "_dup:\n_dup:\nhalt",
        "movntdq 0x10, %xmm1",  # non-temporal form only stores
    ],
)
def test_parse_rejections(bad):
    with pytest.raises(ParseError):
        parse_program(bad)


def test_bundled_programs_parse():
    assert bundled_program_names() == [
        "poc_and_branch",
        "shift_stressor",
        "vp1_indirect_store",
        "vp1_xor_kernel",
        "vp2_add_kernel",
    ]
    for name in bundled_program_names():
        assert isinstance(bundled_program(name), MiniProgram)


def test_program_aliases_resolve():
    for alias, stem in PROGRAM_ALIASES.items():
        a = bundled_program(alias)
        b = bundled_program(stem)
        assert [i.text for i in a.instructions] == [i.text for i in b.instructions]


def test_bundled_program_is_parsed_once():
    prog = bundled_program("vp1_xor_kernel")
    first = interpret(prog)
    assert bundled_program("vp1_xor_kernel") is prog
    assert [h.kind.value for h in scan(prog)] == ["VP1"]
    again = interpret(bundled_program("vp1_xor_kernel"))
    assert again.memory == first.memory and again.slices == first.slices


def test_unknown_bundled_program():
    with pytest.raises(ParseError):
        bundled_program("no_such_kernel")


# -- semantics -------------------------------------------------------------


def test_xor_with_self_is_zero():
    res = run("vpxor %xmm5, %xmm5, %xmm6\n", xmm={"xmm5": 0xDEADBEEF << 64 | 0x1234})
    assert res.xmm["xmm6"] == 0


def test_and_of_all_ones():
    res = run(
        "vpand %xmm10, %xmm11, %xmm12\n",
        xmm={"xmm10": ONES128, "xmm11": ONES128},
    )
    assert res.xmm["xmm12"] == ONES128


def test_paddq_wraps_per_lane():
    # 1 + (2^64 - 1) wraps to zero independently in each lane.
    a = (1 << 64) | 1
    b = (ONES64 << 64) | ONES64
    res = run("vpaddq %xmm1, %xmm2, %xmm3\n", xmm={"xmm1": a, "xmm2": b})
    assert res.xmm["xmm3"] == 0


def test_paddq_no_cross_lane_carry():
    res = run("vpaddq %xmm1, %xmm2, %xmm3\n", xmm={"xmm1": ONES64, "xmm2": 1})
    assert res.xmm["xmm3"] == 0  # carry out of the low lane must vanish


def test_psllq_shifts_lanes():
    value = (3 << 64) | 5
    res = run(
        "vpsllq %xmm0, %xmm1, %xmm2\n",
        xmm={"xmm0": 4, "xmm1": value},
    )
    assert res.xmm["xmm2"] == ((3 << 4) << 64) | (5 << 4)


def test_psllq_count_over_63_zeroes():
    res = run("vpsllq %xmm0, %xmm1, %xmm2\n", xmm={"xmm0": 64, "xmm1": ONES128})
    assert res.xmm["xmm2"] == 0


def test_load_store_round_trip():
    mem = bytearray(DEFAULT_MEMORY_BYTES)
    mem[0x10:0x20] = bytes(range(16))
    res = run("vmovdqu 0x10, %xmm7\nvmovdqu %xmm7, 0x30\n", memory=mem)
    assert res.memory[0x30:0x40] == bytes(range(16))


def test_movnt_store_and_fence():
    res = run(
        "movntdq %xmm1, 0x50\nsfence\n",
        xmm={"xmm1": 0xABCD},
    )
    assert int.from_bytes(res.memory[0x50:0x60], "little") == 0xABCD


def test_push_pop_round_trip():
    res = run("push %r10\npush %r11\npop %r12\npop %r13\n", scalar={"r10": 7, "r11": 9})
    assert res.scalar["r12"] == 9
    assert res.scalar["r13"] == 7
    assert res.scalar["rsp"] == DEFAULT_MEMORY_BYTES - 16


def test_cmp_branches_both_ways():
    text = "cmpjne %rax, $5, _miss\nhalt\n_miss:\nhalt\n"
    assert run(text, scalar={"rax": 5}).halt_index == 1
    assert run(text, scalar={"rax": 6}).halt_index == 2
    text_eq = "cmpjeq %rax, $5, _hit\nhalt\n_hit:\nhalt\n"
    assert run(text_eq, scalar={"rax": 5}).halt_index == 2
    assert run(text_eq, scalar={"rax": 4}).halt_index == 1


def test_cmp_reads_memory_words():
    mem = bytearray(DEFAULT_MEMORY_BYTES)
    mem[0x20:0x28] = (12345).to_bytes(8, "little")
    res = run("cmpjeq 0x20, $12345, _ok\nhalt\n_ok:\nhalt\n", memory=mem)
    assert res.halt_index == 2


def test_fall_off_end_halts():
    res = run("vpxor %xmm0, %xmm0, %xmm1\n")
    assert res.halt_index == 1
    assert res.halted


def test_slice_budget_stops_infinite_loops():
    res = interpret(bundled_program("shift_stressor"), max_slices=503)
    assert res.slices == 503
    assert res.halt_index is None
    assert not res.halted


def test_out_of_range_access():
    # Each error names the program and the line of the faulting instruction.
    with pytest.raises(InterpreterError, match=r"^<string>:1: write of 16 bytes at 0xff8 "):
        run(f"vmovdqu %xmm0, 0x{DEFAULT_MEMORY_BYTES - 8:x}\n")
    with pytest.raises(InterpreterError, match=r"^<string>:2: read of 16 bytes at -0x20 "):
        run("vpxor %xmm0, %xmm0, %xmm1\nvmovdqu -0x20(%rax), %xmm0\n")
    with pytest.raises(InterpreterError, match=r"^stack:2: write of 8 bytes at 0xf{15}8 "):
        interpret(parse_program("push %rax\npush %rbx\n", "stack"), scalar={"rsp": 8})
    with pytest.raises(InterpreterError, match=r"^<string>:4: read of 8 bytes at 0x1000 "):
        run("pop %rax\npop %rbx\n# the top\npop %rcx\n")
    with pytest.raises(InterpreterError, match=r"^<string>:2: read of 8 bytes at 0xffc "):
        run(f"sfence\ncmpjne 0x{DEFAULT_MEMORY_BYTES - 4:x}, %rax, _end\n_end:\n")


def test_interpret_is_pure():
    mem = bytes(b % 251 for b in range(DEFAULT_MEMORY_BYTES))
    text = (
        "vmovdqu 0x00, %xmm1\nvmovdqu 0x10, %xmm2\n"
        "vpaddq %xmm1, %xmm2, %xmm3\nvpxor %xmm3, %xmm1, %xmm4\n"
        "vmovdqu %xmm4, 0x60\n"
    )
    first = run(text, memory=mem)
    second = run(text, memory=mem)
    assert first.memory == second.memory
    assert first.xmm == second.xmm
    assert first.scalar == second.scalar


# -- store hook ---------------------------------------------------------------


def test_store_hook_sees_and_replaces_values():
    seen = []

    def hook(event: StoreExecution):
        seen.append(event)
        return event.value ^ 0b100  # flip bit 2 of everything stored

    mem = bytearray(DEFAULT_MEMORY_BYTES)
    mem[0x00:0x10] = b"\xff" * 16
    mem[0x10:0x20] = b"\xff" * 16
    res = run(
        "vmovdqu 0x00, %xmm1\nvmovdqu 0x10, %xmm2\n"
        "vpand %xmm1, %xmm2, %xmm3\nvmovdqu %xmm3, 0x20\n",
        memory=mem,
        store_hook=hook,
    )
    assert len(seen) == 1
    assert seen[0].insn_index == 3
    assert seen[0].address == 0x20
    assert seen[0].value == ONES128
    assert int.from_bytes(res.memory[0x20:0x30], "little") == ONES128 ^ 0b100


def test_store_hook_skips_scalar_stack_traffic():
    calls = []
    run("push %r10\npop %r10\n", store_hook=lambda e: calls.append(e))
    assert calls == []


def test_store_hook_none_keeps_value():
    res = run(
        "vmovdqu %xmm1, 0x40\n",
        xmm={"xmm1": 0x77},
        store_hook=lambda e: None,
    )
    assert int.from_bytes(res.memory[0x40:0x50], "little") == 0x77


# -- the branch victim ---------------------------------------------------------


def poc_memory():
    mem = bytearray(DEFAULT_MEMORY_BYTES)
    mem[0x00:0x20] = b"\xff" * 32
    return mem


def test_branch_victim_never_deviates_unfaulted():
    prog = bundled_program("poc_and_branch")
    recovery = prog.labels["_recovery"]
    for _ in range(50):
        res = interpret(prog, poc_memory(), scalar={"rax": ONES64})
        assert res.halt_index < recovery


def test_branch_victim_deviates_on_any_stored_flip():
    prog = bundled_program("poc_and_branch")
    recovery = prog.labels["_recovery"]
    for bit in [0, 1, 7, 33, 63, 64, 65, 100, 127]:
        res = interpret(
            prog,
            poc_memory(),
            scalar={"rax": ONES64},
            store_hook=lambda e, b=bit: e.value ^ (1 << b),
        )
        assert res.halt_index == recovery, f"bit {bit} did not divert"


# -- input contract ----------------------------------------------------------

_V = ("%xmm0", "%xmm1", "%xmm15", "%XMM3")
_S = ("%rax", "%rsp", "%r10", "%rbp")
_M = ("0x20", "-16", "0xfff8", "4080", "8(%rsp)", "-8(%rbp)", "0x10(%rax)")
_L = ("loop", "end")
_VAL = _S + _M + ("$0", "$-1", "$0x10")
# Operand kinds per mnemonic, as the parser wants them.
_SHAPES = {
    "vmovdqu": ((_M, _V), (_V, _M)), "movntdq": ((_V, _M),), "vpxor": ((_V, _V, _V),),
    "vpand": ((_V, _V, _V),), "vpaddq": ((_V, _V, _V),), "vpsllq": ((_V, _V, _V),),
    "sfence": ((),), "push": ((_S,),), "pop": ((_S,),), "cmpjne": ((_VAL, _VAL, _L),),
    "cmpjeq": ((_VAL, _VAL, _L),), "jmp": ((_L,),), "halt": ((),),
}
# Tokens that break one rule or another.
_JUNK = ("%xmm16", "%rip", "$", "$1e3", "0x", "()", "(%xmm1)", "(%nope)", "%", "nop", "9bad:")


@st.composite
def _line(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(("loop:", "end:", "# note", "halt;", "")))
    mnemonic = draw(st.sampled_from(sorted(_SHAPES)))
    shape = draw(st.sampled_from(_SHAPES[mnemonic]))
    operands = [draw(st.sampled_from(pool)) for pool in shape]
    if draw(st.integers(0, 9)) == 0:
        operands.insert(draw(st.integers(0, len(operands))), draw(st.sampled_from(_JUNK)))
    return f"{mnemonic} {', '.join(operands)}"


@settings(max_examples=200, deadline=None)
@given(st.lists(_line(), max_size=12))
def test_random_token_programs_raise_only_voltlab_errors(lines):
    # Whatever the text, parsing, scanning and running it either works or
    # raises a VoltlabError; never a bare Python or numpy exception.
    try:
        program = parse_program("\n".join(lines), "fuzz")
        scan(program)
        interpret(program, max_slices=200)
    except VoltlabError:
        pass
