"""SHA-256 and HMAC with an explicit fault surface.

The hash is computed the ordinary way, but each compressed block exposes
fourteen 128-bit store events where a campaign may corrupt data in flight:
twelve stores covering the expanded message schedule (W16..W63, four
32-bit words at a time) and two covering the halves of the chaining state
written back after the block.  That mirrors how vectorized
implementations actually move those values through memory, which is what
makes them susceptible in the first place.

Faults are expressed as XOR masks over the 128-bit store payload, keyed by
(block index, event index).  Fault-free output is bit-identical to the
standard algorithm; `hashlib` is used as the oracle in tests, never here.

`compress`, `sha256` and `HmacContext.mac_with_faults` are the one
implementation of that surface.  A campaign does not load this module:
`victims.run_hmac_victim` reads each payload's store count from
`victims.PAYLOADS` and counts a try as a success whenever its fault set is
nonempty, on the premise that every nonempty set changes the MAC.

- A single faulted store always changes the faulted block's output.  A
  schedule-quad fault changes the round input that consumes its first
  nonzero word, so that round's new `a` differs; the shift register still
  holds that value after the quad's last round, and the later rounds and
  the feed-forward of the unchanged chaining input are bijections of the
  state.  A write-back fault is an XOR on the block's output.  Past the
  faulted block, only a SHA-256 collision could undo the change.
- A set of two or more stores could in principle cancel, as a SHA-256
  local collision does.  For those sets the premise rests on the grid test
  in tests/test_victims.py, not on a proof.
"""

from __future__ import annotations

from .errors import InvariantError

BLOCK_BYTES = 64
MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1

# Store events per compressed block: schedule quads then the state halves.
SCHEDULE_EVENTS = 12
EVENTS_PER_BLOCK = SCHEDULE_EVENTS + 2

_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


def pad_message(message: bytes) -> bytes:
    bit_len = len(message) * 8
    padded = message + b"\x80" + b"\x00" * ((55 - len(message)) % 64)
    return padded + bit_len.to_bytes(8, "big")


def _apply_quad_mask(words: list[int], start: int, mask: int) -> None:
    packed = (
        words[start]
        | words[start + 1] << 32
        | words[start + 2] << 64
        | words[start + 3] << 96
    )
    packed ^= mask & MASK128
    for i in range(4):
        words[start + i] = (packed >> (32 * i)) & MASK32


def compress(
    state: tuple[int, ...], block: bytes, faults: dict[int, int] | None = None
) -> tuple[int, ...]:
    """One block of compression, with optional store corruption.

    Events 0..11 hit schedule quads W[16+4e .. 19+4e] after expansion;
    events 12 and 13 hit the low/high halves of the written-back state.
    """
    if len(block) != BLOCK_BYTES:
        raise InvariantError(f"compress wants {BLOCK_BYTES}-byte blocks")
    w = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 64, 4)]
    for i in range(16, 64):
        x = w[i - 15]
        s0 = ((x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)) & MASK32
        y = w[i - 2]
        s1 = ((y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)) & MASK32
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & MASK32)
    if faults:
        for event, mask in faults.items():
            if 0 <= event < SCHEDULE_EVENTS:
                _apply_quad_mask(w, 16 + 4 * event, mask)
            elif not SCHEDULE_EVENTS <= event < EVENTS_PER_BLOCK:
                raise InvariantError(f"no store event {event} in a block")
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)) & MASK32
        ch = (e & f) ^ (~e & g)
        t1 = (h + s1 + ch + _K[i] + w[i]) & MASK32
        s0 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)) & MASK32
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = (s0 + maj) & MASK32
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & MASK32, c, b, a, (t1 + t2) & MASK32
    out = [
        (s + v) & MASK32 for s, v in zip(state, (a, b, c, d, e, f, g, h))
    ]
    if faults:
        if SCHEDULE_EVENTS in faults:
            _apply_quad_mask(out, 0, faults[SCHEDULE_EVENTS])
        if SCHEDULE_EVENTS + 1 in faults:
            _apply_quad_mask(out, 4, faults[SCHEDULE_EVENTS + 1])
    return tuple(out)


def _digest_bytes(state: tuple[int, ...]) -> bytes:
    return b"".join(s.to_bytes(4, "big") for s in state)


def sha256(message: bytes, faults: dict[tuple[int, int], int] | None = None) -> bytes:
    """Digest with optional store faults keyed by (block, event)."""
    padded = pad_message(message)
    state = _H0
    by_block: dict[int, dict[int, int]] = {}
    if faults:
        for (blk, event), mask in faults.items():
            by_block.setdefault(blk, {})[event] = mask
    for blk, off in enumerate(range(0, len(padded), BLOCK_BYTES)):
        state = compress(state, padded[off : off + BLOCK_BYTES], by_block.get(blk))
    return _digest_bytes(state)


class HmacContext:
    """HMAC-SHA256 of one fixed (key, message), faultable per store event.

    `mac_with_faults` recomputes only from the earliest corrupted block,
    reusing per-block chaining checkpoints.  Event numbering is global:
    blocks 0..n-1 are the inner hash, n and n+1 the outer.
    """

    def __init__(self, key: bytes, message: bytes):
        if len(key) > BLOCK_BYTES:
            key = sha256(key)
        key = key.ljust(BLOCK_BYTES, b"\x00")
        self.key = key
        self.message = message
        inner_padded = pad_message(bytes(k ^ 0x36 for k in key) + message)
        self.inner_blocks = [
            inner_padded[i : i + BLOCK_BYTES]
            for i in range(0, len(inner_padded), BLOCK_BYTES)
        ]
        self.n_inner = len(self.inner_blocks)
        self.total_blocks = self.n_inner + 2
        self.total_events = self.total_blocks * EVENTS_PER_BLOCK
        # chaining state entering each inner block
        self.checkpoints: list[tuple[int, ...]] = []
        state = _H0
        for block in self.inner_blocks:
            self.checkpoints.append(state)
            state = compress(state, block)
        self.clean_inner = _digest_bytes(state)
        self.outer_first_block = bytes(k ^ 0x5C for k in key)
        self.outer_state1 = compress(_H0, self.outer_first_block)
        self.clean_mac = self._outer(self.clean_inner, None, None)

    def _outer_tail_block(self, inner_digest: bytes) -> bytes:
        tail = pad_message(b"\x00" * BLOCK_BYTES + inner_digest)[BLOCK_BYTES:]
        assert len(tail) == BLOCK_BYTES
        return tail

    def _outer(self, inner_digest, faults0: dict | None, faults1: dict | None) -> bytes:
        if faults0:
            state = compress(_H0, self.outer_first_block, faults0)
        else:
            state = self.outer_state1
        state = compress(state, self._outer_tail_block(inner_digest), faults1)
        return _digest_bytes(state)

    def _fault_key(self, faults: dict[tuple[int, int], int]) -> tuple:
        """Canonical key of a fault set: masks cut to 128 bits, zero
        masks dropped, sorted by (block, event).  Empty means fault-free."""
        key = tuple(sorted((store, m & MASK128) for store, m in faults.items() if m & MASK128))
        for (blk, event), _ in key:
            if not 0 <= blk < self.total_blocks:
                raise InvariantError(f"block {blk} out of range")
            if not 0 <= event < EVENTS_PER_BLOCK:
                raise InvariantError(f"event {event} out of range")
        return key

    def mac_with_faults(self, faults: dict[tuple[int, int], int]) -> bytes:
        """MAC with XOR masks applied at (global block, event) stores."""
        key = self._fault_key(faults)
        if not key:
            return self.clean_mac
        by_block: dict[int, dict[int, int]] = {}
        for (blk, event), mask in key:
            by_block.setdefault(blk, {})[event] = mask
        inner_faulted = [b for b in by_block if b < self.n_inner]
        if inner_faulted:
            start = min(inner_faulted)
            state = self.checkpoints[start]
            for blk in range(start, self.n_inner):
                state = compress(state, self.inner_blocks[blk], by_block.get(blk))
            inner_digest = _digest_bytes(state)
        else:
            inner_digest = self.clean_inner
        return self._outer(
            inner_digest,
            by_block.get(self.n_inner),
            by_block.get(self.n_inner + 1),
        )


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    return HmacContext(key, message).clean_mac
