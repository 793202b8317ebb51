"""Hash correctness against library oracles, and the fault surface."""

import hashlib
import hmac as hmac_oracle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmac_reference
from helpers import numpy_stream
from hmac_reference import macs_with_keys, store_events
from voltlab.errors import InvariantError
from voltlab.sha256sim import (
    EVENTS_PER_BLOCK,
    MASK128,
    HmacContext,
    compress,
    hmac_sha256,
    pad_message,
    sha256,
)

# Published HMAC-SHA256 vectors (20-byte 0x0b key / "Hi There", then
# "Jefe" / the question).
VECTORS = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
]


def test_sha256_known_answers():
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


@pytest.mark.parametrize("key,msg,expected", VECTORS)
def test_hmac_published_vectors(key, msg, expected):
    assert hmac_sha256(key, msg).hex() == expected


def test_matches_hashlib_on_random_inputs():
    gen = numpy_stream(41, "hash-fuzz")
    for _ in range(60):
        n = int(gen.integers(0, 300))
        data = gen.bytes(n)
        assert sha256(data) == hashlib.sha256(data).digest()
    for _ in range(40):
        key = gen.bytes(int(gen.integers(0, 100)))
        msg = gen.bytes(int(gen.integers(0, 200)))
        assert hmac_sha256(key, msg) == hmac_oracle.new(key, msg, "sha256").digest()


def test_padding_layout():
    assert len(pad_message(b"")) == 64
    assert len(pad_message(b"x" * 55)) == 64
    assert len(pad_message(b"x" * 56)) == 128
    padded = pad_message(b"abc")
    assert padded[3] == 0x80
    assert int.from_bytes(padded[-8:], "big") == 24


def test_context_geometry():
    small = HmacContext(b"k" * 32, b"m" * 32)
    assert small.n_inner == 2
    assert small.total_blocks == 4
    assert small.total_events == 56
    big = HmacContext(b"k" * 32, b"m" * 1024)
    assert big.total_blocks == 20
    assert big.total_events == 280
    assert store_events(small)[0] == (0, 0)
    assert store_events(small)[-1] == (3, 13)
    for ctx in (small, big):
        assert store_events(ctx) == tuple(
            (block, event) for block in range(ctx.total_blocks) for event in range(EVENTS_PER_BLOCK)
        )


def test_fault_free_context_matches_oracle():
    ctx = HmacContext(b"secret-key", b"payload bytes here")
    assert ctx.clean_mac == hmac_oracle.new(b"secret-key", b"payload bytes here", "sha256").digest()
    assert ctx.mac_with_faults({}) == ctx.clean_mac
    assert ctx.mac_with_faults({(1, 3): 0}) == ctx.clean_mac  # zero mask is no fault


def test_every_single_bit_flip_changes_the_mac():
    ctx = HmacContext(b"k" * 32, b"m" * 32)
    gen = numpy_stream(42, "flip-sweep")
    seen_macs = {ctx.clean_mac}
    for _ in range(1000):
        blk = int(gen.integers(0, ctx.total_blocks))
        event = int(gen.integers(0, EVENTS_PER_BLOCK))
        bit = int(gen.integers(0, 128))
        mac = ctx.mac_with_faults({(blk, event): 1 << bit})
        assert mac != ctx.clean_mac
        seen_macs.add(mac)
    assert len(seen_macs) > 900  # distinct faults, distinct digests


def test_schedule_fault_equals_direct_recomputation():
    # Independent path: apply the same masks through sha256() directly.
    key, msg = b"q" * 32, b"z" * 32
    ctx = HmacContext(key, msg)
    ipad = bytes(k ^ 0x36 for k in key.ljust(64, b"\x00"))
    opad = bytes(k ^ 0x5C for k in key.ljust(64, b"\x00"))
    gen = numpy_stream(43, "cross-check")
    for _ in range(200):
        blk = int(gen.integers(0, ctx.total_blocks))
        event = int(gen.integers(0, EVENTS_PER_BLOCK))
        mask = int(gen.integers(1, 1 << 63)) | int(gen.integers(0, 1 << 63)) << 64
        got = ctx.mac_with_faults({(blk, event): mask})
        if blk < ctx.n_inner:
            inner = sha256(ipad + msg, {(blk, event): mask})
            expect = sha256(opad + inner)
        else:
            inner = sha256(ipad + msg)
            expect = sha256(opad + inner, {(blk - ctx.n_inner, event): mask})
        assert got == expect


def test_multi_event_faults_compose():
    key, msg = b"kk", b"multi"
    ctx = HmacContext(key, msg)
    assert ctx.n_inner == 2
    ipad = bytes(k ^ 0x36 for k in key.ljust(64, b"\x00"))
    opad = bytes(k ^ 0x5C for k in key.ljust(64, b"\x00"))
    outer_blk = ctx.n_inner
    faults = {(0, 2): 1 << 7, (1, 13): 1 << 90, (outer_blk, 0): (1 << 5) | (1 << 77)}
    got = ctx.mac_with_faults(faults)
    inner = sha256(ipad + msg, {(0, 2): 1 << 7, (1, 13): 1 << 90})
    expect = sha256(opad + inner, {(0, 0): (1 << 5) | (1 << 77)})
    assert got == expect


def test_fault_validation():
    ctx = HmacContext(b"a", b"b")
    with pytest.raises(InvariantError):
        ctx.mac_with_faults({(99, 0): 1})
    with pytest.raises(InvariantError):
        ctx.mac_with_faults({(0, 14): 1})
    with pytest.raises(InvariantError):
        compress((0,) * 8, b"\x00" * 64, {-1: 1})
    with pytest.raises(InvariantError):
        compress((0,) * 8, b"\x00" * 63)


# The lane pass of tests/hmac_reference.py, held to the scalar path.  Key
# and message lengths: a key longer than a block is hashed first, and the
# message lengths sit on the padding edges.
KEY_LENGTHS = (0, 20, 64, 131)
MESSAGE_LENGTHS = (0, 55, 56, 64, 119, 1024)


def _context(key_len: int, msg_len: int) -> HmacContext:
    return HmacContext(
        bytes((3 * i + 1) & 0xFF for i in range(key_len)),
        bytes((7 * i + 13) & 0xFF for i in range(msg_len)),
    )


def _scalar_macs(ctx: HmacContext, fault_sets) -> list[bytes]:
    reference = HmacContext(ctx.key, ctx.message)
    return [reference.mac_with_faults(f) for f in fault_sets]


def _lane_macs(ctx: HmacContext, fault_sets) -> list[bytes]:
    return macs_with_keys(ctx, [ctx._fault_key(f) for f in fault_sets])


@st.composite
def _lane_case(draw):
    ctx = _context(draw(st.sampled_from(KEY_LENGTHS)), draw(st.sampled_from(MESSAGE_LENGTHS)))
    stores = st.tuples(
        st.integers(0, ctx.total_blocks - 1), st.integers(0, EVENTS_PER_BLOCK - 1)
    )
    masks = st.one_of(
        st.just(0),
        st.integers(0, 127).map(lambda bit: 1 << bit),
        st.integers(1, MASK128),
        st.integers(MASK128 + 1, 1 << 140),  # cut to 128 bits
    )
    sets = draw(st.lists(st.dictionaries(stores, masks, max_size=6), max_size=8))
    repeats = draw(st.lists(st.sampled_from(sets), max_size=3)) if sets else []
    return ctx, sets + [dict(f) for f in repeats]


@settings(max_examples=60, deadline=None)
@given(_lane_case())
def test_lane_macs_equal_scalar_macs(case):
    ctx, fault_sets = case
    assert _lane_macs(ctx, fault_sets) == _scalar_macs(ctx, fault_sets)


@pytest.mark.parametrize("key_len", KEY_LENGTHS)
@pytest.mark.parametrize("msg_len", MESSAGE_LENGTHS)
def test_lane_macs_with_every_store_faulted(key_len, msg_len):
    ctx = _context(key_len, msg_len)
    gen = numpy_stream(44, "every-store", key_len, msg_len)
    every = {
        (blk, event): int(gen.integers(1, 1 << 63)) << int(gen.integers(0, 65))
        for blk in range(ctx.total_blocks)
        for event in range(EVENTS_PER_BLOCK)
    }
    outer_only = {(ctx.n_inner, 12): 1 << 5, (ctx.n_inner + 1, 0): 1 << 100}
    fault_sets = [{}, {(0, 0): 0}, every, dict(every), outer_only, {(0, 13): 1}]
    got = _lane_macs(ctx, fault_sets)
    assert got == _scalar_macs(ctx, fault_sets)
    assert got[0] == got[1] == ctx.clean_mac
    assert len(set(got[2:])) == 3


def test_lane_fault_validation():
    ctx = HmacContext(b"a", b"b")
    for bad in ({(ctx.total_blocks, 0): 1}, {(-1, 0): 1}, {(0, EVENTS_PER_BLOCK): 1}):
        with pytest.raises(InvariantError):
            ctx._fault_key(bad)
        with pytest.raises(InvariantError):
            ctx.mac_with_faults(bad)


def test_macs_with_keys_makes_one_pass_over_the_distinct_faulted_keys(monkeypatch):
    ctx = HmacContext(b"c" * 32, b"d" * 32)
    lane_macs, passes = hmac_reference._lane_macs, []

    def recording(ctx, keys):
        passes.append(list(keys))
        return lane_macs(ctx, keys)

    monkeypatch.setattr(hmac_reference, "_lane_macs", recording)
    a, b = ctx._fault_key({(1, 4): 1 << 9}), ctx._fault_key({(3, 12): 1 << 70})
    macs = macs_with_keys(ctx, [a, (), b, a, (), b, a])
    assert passes == [[a, b]]
    assert macs == [ctx.mac_with_faults(dict(k)) for k in (a, (), b, a, (), b, a)]
    assert macs[1] == macs[4] == ctx.clean_mac
    passes.clear()
    assert macs_with_keys(ctx, [(), ()]) == [ctx.clean_mac] * 2
    assert macs_with_keys(ctx, []) == []
    assert passes == []
