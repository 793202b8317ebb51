"""Pattern scan vs brute-force oracle, and the store windows victims count."""

import pytest

from voltlab.isa import bundled_program, parse_program
from voltlab.scanner import ADJACENCY_LIMIT, PatternHit, PatternKind, hits_to_json, scan
from helpers import numpy_stream, random_program_text
from slice_reference import loop_victim, scan_brute


def hits(text):
    return scan(parse_program(text))


def test_indirect_store_has_exactly_one_vp1_hit():
    got = scan(bundled_program("vp1_indirect_store"))
    assert got == [PatternHit(PatternKind.VP1, 0, 1)]
    assert got[0].gap == 0


def test_bundled_kernels():
    assert scan(bundled_program("vp1_xor_kernel")) == [PatternHit(PatternKind.VP1, 2, 3)]
    assert scan(bundled_program("vp2_add_kernel")) == [PatternHit(PatternKind.VP2, 2, 3)]
    assert scan(bundled_program("poc_and_branch")) == [PatternHit(PatternKind.VP1, 2, 3)]
    assert scan(bundled_program("shift_stressor")) == []


def test_vpand_counts_as_vp1():
    assert hits("vpand %xmm1, %xmm2, %xmm3\nvmovdqu %xmm3, 0x10\n") == [
        PatternHit(PatternKind.VP1, 0, 1)
    ]


def test_unstored_result_is_no_hit():
    assert hits("vpxor %xmm1, %xmm2, %xmm3\nvmovdqu %xmm4, 0x10\n") == []


def test_gap_limit():
    filler = "sfence\n"
    base = "vpaddq %xmm1, %xmm2, %xmm3\n{}vmovdqu %xmm3, 0x10\n"
    at_limit = base.format(filler * ADJACENCY_LIMIT)
    beyond = base.format(filler * (ADJACENCY_LIMIT + 1))
    assert hits(at_limit) == [PatternHit(PatternKind.VP2, 0, ADJACENCY_LIMIT + 1)]
    assert hits(beyond) == []


def test_redefinition_kills_the_pattern():
    text = (
        "vpxor %xmm1, %xmm2, %xmm3\n"
        "vmovdqu 0x30, %xmm3\n"  # reload overwrites the result
        "vmovdqu %xmm3, 0x10\n"
    )
    assert hits(text) == []
    shifted = (
        "vpxor %xmm1, %xmm2, %xmm3\n"
        "vpsllq %xmm0, %xmm3, %xmm3\n"
        "vmovdqu %xmm3, 0x10\n"
    )
    assert hits(shifted) == []


def test_other_register_traffic_does_not_kill():
    # The add in the gap writes a different register; the xor survives.
    text = (
        "vpxor %xmm1, %xmm2, %xmm3\n"
        "vpaddq %xmm4, %xmm5, %xmm6\n"
        "vmovdqu %xmm3, 0x10\n"
    )
    assert hits(text) == [PatternHit(PatternKind.VP1, 0, 2)]


def test_interleaved_patterns_complete_in_store_order():
    text = (
        "vpxor %xmm1, %xmm2, %xmm3\n"
        "vpaddq %xmm4, %xmm5, %xmm6\n"
        "vmovdqu %xmm6, 0x10\n"
        "vmovdqu %xmm3, 0x20\n"
    )
    assert hits(text) == [
        PatternHit(PatternKind.VP2, 1, 2),
        PatternHit(PatternKind.VP1, 0, 3),
    ]


def test_double_store_yields_two_hits():
    text = (
        "vpaddq %xmm1, %xmm2, %xmm3\n"
        "vmovdqu %xmm3, 0x10\n"
        "movntdq %xmm3, 0x20\n"
    )
    assert hits(text) == [
        PatternHit(PatternKind.VP2, 0, 1),
        PatternHit(PatternKind.VP2, 0, 2),
    ]


def test_nontemporal_store_is_eligible():
    text = "vpxor %xmm1, %xmm2, %xmm3\nmovntdq %xmm3, 0x10\nsfence\n"
    assert hits(text) == [PatternHit(PatternKind.VP1, 0, 1)]


def test_hit_invariants():
    with pytest.raises(Exception):
        PatternHit(PatternKind.VP1, 3, 3)
    with pytest.raises(Exception):
        PatternHit(PatternKind.VP1, 0, ADJACENCY_LIMIT + 2)


def test_hits_to_json_shape():
    text = "vpxor %xmm1, %xmm2, %xmm3\nvmovdqu %xmm3, 0x10\n"
    out = hits_to_json(hits(text))
    assert '"kind": "VP1"' in out
    assert '"gap": 0' in out


def test_scan_matches_brute_oracle():
    gen = numpy_stream(31, "scan-fuzz")
    for _ in range(300):
        prog = parse_program(random_program_text(gen))
        assert scan(prog) == scan_brute(prog)


# -- store windows: the eligible stores a victim's fault-free run executes --


def test_straight_line_window():
    prog = bundled_program("vp1_xor_kernel")
    (hit,) = scan(prog)
    victim = loop_victim(prog)
    assert victim.store_insns == {hit.store_index}
    assert victim.events == 1


def test_two_instruction_kernel_window():
    prog = bundled_program("vp1_indirect_store")
    (hit,) = scan(prog)
    victim = loop_victim(prog)
    assert victim.store_insns == {hit.store_index}
    assert victim.events == 1


def test_loop_multiplies_store_executions():
    # The increment is the stack pointer after one push, 0xfe8, read back
    # from where the push wrote it; xmm2 accumulates it once per pass, and
    # the loop publishes it and exits after the fifth.
    text = (
        "push %rsp\n"
        "vmovdqu 0xfe8, %xmm1\n"
        "_loop:\n"
        "vpaddq %xmm1, %xmm2, %xmm2\n"
        "vmovdqu %xmm2, 0x40\n"
        f"cmpjne 0x40, ${5 * 0xFE8}, _loop\n"
        "halt\n"
    )
    prog = parse_program(text)
    (hit,) = scan(prog)
    victim = loop_victim(prog)
    assert victim.store_insns == {hit.store_index}
    assert victim.events == 5


def test_never_taken_branch_window():
    text = (
        "cmpjeq %rax, $0, _skip\n"
        "vpxor %xmm1, %xmm2, %xmm3\n"
        "vmovdqu %xmm3, 0x10\n"
        "_skip:\n"
        "halt\n"
    )
    prog = parse_program(text)
    assert len(scan(prog)) == 1
    victim = loop_victim(prog)
    assert victim.store_insns == frozenset()
    assert victim.events == 0
