import hashlib
import os
import subprocess
import sys
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp.density import FREQ_TOTAL, FreqTable, quantize_probs
from resicomp.entropy_coder import (Bitstring, CorruptStreamError,
                                    block_steps, blocks, decode, encode,
                                    k_tables, peaks)

# The reference coder: the two stateful classes that `encode` and
# `decode` replaced, but for their steps' type.  The encoder codes
# (low, freq, total) steps, and the decoder decodes a symbol under a
# cumulative row (a list) whose last entry is its total.

_TOP = 1 << 24
_MASK32 = (1 << 32) - 1


class RangeEncoder:
    def __init__(self):
        self.low = 0  # holds up to 33 bits until the carry is flushed
        self.range = _MASK32
        self.cache = 0
        self.pending = 0
        self.started = False
        self.out = bytearray()

    def encode(self, low_count, freq, total):
        r = self.range // total
        self.low += r * low_count
        self.range = r * freq
        while self.range < _TOP:
            self._shift_low()
            self.range = (self.range << 8) & _MASK32

    def _shift_low(self):
        if self.low < 0xFF000000 or self.low > _MASK32:
            carry = self.low >> 32
            if self.started:
                self.out.append((self.cache + carry) & 0xFF)
            else:
                # First shift only primes the cache; the leading byte
                # would always be zero and is not emitted.
                self.started = True
                if carry:
                    raise AssertionError("carry before first byte")
            while self.pending:
                self.out.append((0xFF + carry) & 0xFF)
                self.pending -= 1
            self.cache = (self.low >> 24) & 0xFF
        else:
            self.pending += 1
        self.low = (self.low << 8) & _MASK32

    def finish(self) -> Bitstring:
        for _ in range(5):
            self._shift_low()
        return Bitstring(bytes(self.out))


class RangeDecoder:
    def __init__(self, bits: Bitstring):
        self.data = bits.data
        self.pos = 0
        self.range = _MASK32
        self.code = 0
        for _ in range(4):
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32

    def _next_byte(self):
        if self.pos >= len(self.data):
            raise CorruptStreamError("bitstring exhausted")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, cum) -> int:
        total = cum[-1]
        r = self.range // total
        value = self.code // r
        if value >= total:
            raise CorruptStreamError("decoder state out of range")
        index = bisect_right(cum, value) - 1
        low_count, high_count = cum[index], cum[index + 1]
        self.code -= r * low_count
        self.range = r * (high_count - low_count)
        while self.range < _TOP:
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32
            self.range = (self.range << 8) & _MASK32
        if self.code >= self.range:
            raise CorruptStreamError("decoder state overflow")
        return index


# The reference block layout, in plain loops over lists: a block codes
# its k under k's table, its symbols below k - 1 under their own tables,
# then symbol k - 1 under its table with the likeliest symbol taken out.
# k's tables come from `k_tables`, which has tests of its own below.

def _first_largest(row):
    """The first symbol of the largest count in cumulative row `row`."""
    counts = [high - low for low, high in zip(row, row[1:])]
    return counts.index(max(counts))


def _taken_out(row, symbol):
    """Cumulative row `row` with `symbol`'s count taken out."""
    count = row[symbol + 1] - row[symbol]
    return row[:symbol + 1] + [c - count for c in row[symbol + 1:]]


def _k(block, like):
    """1 + the index of the block's last symbol that is not its
    likeliest, or 0."""
    return max((j + 1 for j, (s, l) in enumerate(zip(block, like))
                if s != l), default=0)


def _reference_blocks(rows, cum, channels):
    """(k's table, the channels' tables, their likeliest symbols) of
    each block, all as lists."""
    tables = [cum[row].tolist() for row in rows]
    like = [_first_largest(table) for table in tables]
    counts = [table[s + 1] - table[s] for table, s in zip(tables, like)]
    kcum = k_tables(np.array(counts, dtype=np.int64).reshape(-1, channels))
    for p, ktable in enumerate(kcum.tolist()):
        at = slice(p * channels, (p + 1) * channels)
        yield ktable, tables[at], like[at]


def _step(cum, symbol):
    return cum[symbol], cum[symbol + 1] - cum[symbol], cum[-1]


def reference_steps(symbols, rows, cum, channels) -> list:
    """The (low, freq, total) steps of `symbols` as blocks of `channels`
    symbols, symbol i under row `rows[i]` of `cum`."""
    steps = []
    for p, (ktable, tables, like) in enumerate(
            _reference_blocks(rows, cum, channels)):
        block = symbols[p * channels:(p + 1) * channels]
        k = _k(block, like)
        steps.append(_step(ktable, k))
        for j in range(k):
            table = tables[j] if j < k - 1 else _taken_out(tables[j], like[j])
            steps.append(_step(table, block[j]))
    return steps


def reference_encode(steps, enc=None) -> Bitstring:
    """The range code of (low, freq, total) steps."""
    enc = RangeEncoder() if enc is None else enc
    for step in steps:
        enc.encode(*step)
    return enc.finish()


def reference_decode(bits: Bitstring, rows, cum, channels) -> list:
    """Decode exactly len(rows) symbols, as blocks of `channels`."""
    dec = RangeDecoder(bits)
    symbols = []
    for ktable, tables, like in _reference_blocks(rows, cum, channels):
        k = dec.decode(ktable)
        block = list(like)
        for j in range(k):
            block[j] = dec.decode(tables[j] if j < k - 1
                                  else _taken_out(tables[j], like[j]))
        symbols += block
    return symbols


def _table(counts):
    """The cumulative row of one row of counts."""
    return FreqTable.batch(np.asarray(counts)[None])[0]


def _under(table, n):
    """(rows, cum) that put n symbols under one table."""
    return [0] * n, table[None]


def _decode_one_channel(bits, rows, cum):
    """The symbols that the three-argument `encode` coded in bits: blocks
    of one channel."""
    return decode(bits, rows, cum, blocks(rows, cum, peaks(cum), 1)).tolist()


# Every table of a stream below is padded to this width (the widest
# alphabet plus one) with FREQ_TOTAL: symbols of count 0 past the end,
# which no stream codes and which a bisection for a value below
# FREQ_TOTAL never reaches.  So tables of any alphabet are rows of one
# array.
_WIDTH = 301


def _stack(tables):
    """The cumulative rows `tables` as rows of one (T, _WIDTH) array."""
    cum = np.full((len(tables), _WIDTH), FREQ_TOTAL, dtype=np.int32)
    for row, table in zip(cum, tables):
        row[:len(table)] = table
    return cum


def _uniform_table(size=256):
    return _table(np.full(size, FREQ_TOTAL // size, dtype=np.int64))


def _random_table(rng, size):
    probs = rng.dirichlet(np.full(size, 0.3))
    return _table(quantize_probs(probs))


def _tied_table(rng, size):
    """A table whose two largest counts are equal."""
    counts = np.ones(size, dtype=np.int64)
    first, second, third = rng.choice(size, 3, replace=False)
    counts[[first, second]] = (FREQ_TOTAL - (size - 2)) // 2
    counts[third] += FREQ_TOTAL - counts.sum()
    return _table(counts)


_KINDS = ("dirichlet", "sparse", "skewed")


def _tables(specs):
    """Cumulative rows of the tables given as (alphabet size, kind,
    seed).  A "sparse" table holds most symbols at the floor count of 1,
    a "skewed" one all but size - 1 counts on one symbol and a "tied"
    one (size 3 or more) two equal largest counts."""
    tables = []
    for size, kind, table_seed in specs:
        rng = np.random.default_rng(table_seed)
        if kind == "tied":
            tables.append(_tied_table(rng, size))
            continue
        if kind == "dirichlet":
            probs = rng.dirichlet(np.full(size, 0.3))
        elif kind == "sparse":
            probs = rng.random(size) * (rng.random(size) < 0.1)
            probs[rng.integers(size)] += 1.0
            probs /= probs.sum()
        else:
            probs = np.zeros(size)
            probs[rng.integers(size)] = 1.0
        tables.append(_table(quantize_probs(probs)))
    return tables


def _stream(specs, n, seed):
    """(symbols, rows, cum): n symbols under the tables `specs` gives,
    stacked in that order.  Half the symbols are uniform over the
    alphabet, so rare symbols and their long renormalizations are
    common; half follow the table's law."""
    tables = _tables(specs)
    rng = np.random.default_rng(seed)
    which = rng.integers(len(tables), size=n)
    uniform = rng.random(n) < 0.5
    spots = rng.random(n)
    draws = rng.integers(FREQ_TOTAL, size=n)
    symbols = np.empty(n, dtype=np.int64)
    for t, table in enumerate(tables):
        mine = which == t
        by_law = np.searchsorted(table, draws[mine], side="right") - 1
        symbols[mine] = np.where(uniform[mine],
                                 (spots[mine] * (len(table) - 1)).astype(int),
                                 by_law)
    return symbols.tolist(), which.tolist(), _stack(tables)


def _block_stream(specs, channels, n, seed):
    """(symbols, rows, cum) of n blocks of `channels` symbols, drawn as
    `_stream` draws them.  Then each block is cut to end at its k: 0,
    `channels` or any k between, about a third each.  Its symbols from k
    on become their likeliest, and its last surprise, where it is not
    one, becomes a symbol beside the likeliest or at either end of the
    alphabet, as it always does at k = C."""
    symbols, rows, cum = _stream(specs, n * channels, seed)
    like = [_first_largest(row) for row in cum.tolist()]
    sizes = [size for size, _, _ in specs]
    rng = np.random.default_rng([seed, 1])
    for p, end in enumerate(rng.integers(3, size=n).tolist()):
        block = range(p * channels, (p + 1) * channels)
        k = (0, channels, int(rng.integers(1, channels + 1)))[end]
        for i in block[k:]:
            symbols[i] = like[rows[i]]
        if k:
            last, row = block[k - 1], rows[block[k - 1]]
            if end == 1 or symbols[last] == like[row]:
                symbols[last] = int(rng.choice(
                    [s for s in (0, sizes[row] - 1, like[row] - 1,
                                 like[row] + 1)
                     if 0 <= s < sizes[row] and s != like[row]]))
    return symbols, rows, cum


_BLOCK_SPECS = st.lists(st.tuples(st.integers(3, 300),
                                  st.sampled_from(_KINDS + ("tied",)),
                                  st.integers(0, 2**32 - 1)),
                        min_size=1, max_size=4)


@st.composite
def _block_streams(draw, channels=(1, 2, 16), max_symbols=2000):
    """(symbols, rows, cum, channels): `_block_stream`s of blocks of one
    of `channels`, up to max_symbols symbols, under one to four tables
    over 3..300 symbols."""
    c = draw(st.sampled_from(channels))
    return (*_block_stream(draw(_BLOCK_SPECS), c,
                           draw(st.integers(0, max_symbols // c)),
                           draw(st.integers(0, 2**32 - 1))), c)


@settings(max_examples=150, deadline=None)
@given(_block_streams())
def test_encode_matches_the_reference(stream):
    symbols, rows, cum, c = stream
    expected = reference_encode(reference_steps(symbols, rows, cum, c))
    steps = block_steps(symbols, rows, cum, peaks(cum), c)
    assert encode(symbols, rows, cum, steps).data == expected.data
    if c == 1:
        # The three-argument call codes blocks of one channel.
        assert encode(symbols, rows, cum).data == expected.data


def _reference_outcome(bits, rows, cum, c):
    try:
        return reference_decode(bits, rows, cum, c)
    except CorruptStreamError:
        return CorruptStreamError


def _outcome(bits, rows, cum, c):
    try:
        return decode(bits, rows, cum,
                      blocks(rows, cum, peaks(cum), c)).tolist()
    except CorruptStreamError:
        return CorruptStreamError


_DAMAGES = ["none", "truncate", "flip", "junk", "short"]


def _damaged(payload, damage, data):
    """The payload bytes after `damage`, drawing its details from data."""
    payload = bytearray(payload)
    if damage == "truncate":
        payload = payload[:data.draw(st.integers(0, len(payload)))]
    elif damage == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            bit = data.draw(st.integers(0, 8 * len(payload) - 1))
            payload[bit // 8] ^= 1 << (bit % 8)
    elif damage == "junk":
        payload = bytearray(data.draw(st.binary(max_size=64)))
    elif damage == "short":
        payload = bytearray(data.draw(st.binary(max_size=3)))
    return Bitstring(bytes(payload))


@settings(max_examples=300, deadline=None)
@given(_block_streams(max_symbols=300), st.sampled_from(_DAMAGES), st.data())
def test_decode_matches_the_reference_on_any_payload(stream, damage, data):
    symbols, rows, cum, c = stream
    bits = _damaged(reference_encode(
        reference_steps(symbols, rows, cum, c)).data, damage, data)
    if damage == "short" and data.draw(st.booleans()):
        rows = []
    got = _outcome(bits, rows, cum, c)
    assert got == _reference_outcome(bits, rows, cum, c)
    if damage == "none":
        assert got == symbols


@settings(max_examples=150, deadline=None)
@given(_block_streams(max_symbols=300), _BLOCK_SPECS,
       st.integers(0, 2**32 - 1), st.sampled_from(_DAMAGES), st.data())
def test_rows_among_other_rows_code_as_the_reference(stream, other_specs,
                                                     seed, damage, data):
    # The stream's tables sit at scattered rows of one array, next to
    # other tables; the coder must read each symbol's row and no other.
    symbols, rows, cum, c = stream
    others = _stack(_tables(other_specs))
    place = np.random.default_rng(seed).permutation(len(cum) + len(others))
    mixed = np.empty((len(place), _WIDTH), dtype=np.int32)
    mixed[place] = np.concatenate([cum, others])
    moved = place[rows].tolist()
    bits = reference_encode(reference_steps(symbols, rows, cum, c))
    steps = block_steps(symbols, moved, mixed, peaks(mixed), c)
    assert encode(symbols, moved, mixed, steps).data == bits.data
    bits = _damaged(bits.data, damage, data)
    assert (_outcome(bits, moved, mixed, c)
            == _reference_outcome(bits, rows, cum, c))


def test_likeliest_is_the_first_largest_count():
    cum = _stack([_table([1, 30000, 30000, 5535]),
                  _table([FREQ_TOTAL - 1, 1]), _table([1, 1, FREQ_TOTAL - 2])])
    assert peaks(cum)[:, 0].tolist() == [1, 0, 2]


def test_stream_strategy_reaches_carries_into_pending_bytes():
    # A carry into 0xFF bytes held back is the coder's hardest path;
    # the block streams above must reach it, and blocks of every end.
    events = set()

    class Observed(RangeEncoder):
        def _shift_low(self):
            if self.low > _MASK32:
                events.add("carry")
                if self.pending:
                    events.add("carry into pending")
            elif self.low >= 0xFF000000:
                events.add("pending")
            super()._shift_low()

    for seed in range(20):
        rng = np.random.default_rng(seed)
        specs = [(int(rng.integers(3, 301)), kind, seed)
                 for kind in _KINDS + ("tied",)]
        c = (1, 2, 16)[seed % 3]
        symbols, rows, cum = _block_stream(specs, c, 2000 // c, seed)
        reference_encode(reference_steps(symbols, rows, cum, c), Observed())
        like = [_first_largest(row) for row in cum.tolist()]
        for p in range(len(rows) // c):
            at = slice(p * c, (p + 1) * c)
            k = _k(symbols[at], [like[row] for row in rows[at]])
            events.add("k = 0" if k == 0 else "k = C" if k == c
                       else "0 < k < C")
    assert events == {"carry", "pending", "carry into pending", "k = 0",
                      "0 < k < C", "k = C"}


def test_empty_payload_is_small():
    rows, cum = _under(_uniform_table(), 0)
    bits = encode([], rows, cum)
    assert bits.bit_length <= 64
    assert _decode_one_channel(bits, rows, cum) == []


def test_uniform_256_codes_at_eight_bits(rng):
    rows, cum = _under(_uniform_table(), 1000)
    symbols = rng.integers(0, 256, size=1000).tolist()
    bits = encode(symbols, rows, cum)
    assert 8000 <= bits.bit_length <= 8000 + 64 + 8
    assert _decode_one_channel(bits, rows, cum) == symbols


def test_roundtrip_random_tables(rng):
    for _ in range(50):
        size = int(rng.integers(2, 300))
        n = int(rng.integers(1, 200))
        cum = np.stack([_random_table(rng, size) for _ in range(min(n, 5))])
        rows = [i % len(cum) for i in range(n)]
        symbols = [int(rng.integers(0, size)) for _ in range(n)]
        bits = encode(symbols, rows, cum)
        assert _decode_one_channel(bits, rows, cum) == symbols


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_roundtrip_property(data):
    size = data.draw(st.integers(min_value=2, max_value=64))
    counts = data.draw(
        st.lists(st.integers(min_value=1, max_value=1000),
                 min_size=size, max_size=size)
    )
    counts = np.array(counts, dtype=np.int64)
    probs = counts / counts.sum()
    table = _table(quantize_probs(probs))
    symbols = data.draw(
        st.lists(st.integers(min_value=0, max_value=size - 1),
                 min_size=0, max_size=60)
    )
    rows, cum = _under(table, len(symbols))
    bits = encode(symbols, rows, cum)
    assert _decode_one_channel(bits, rows, cum) == symbols


def test_efficiency_bound(rng):
    # Measured bits <= table cross-entropy + 64 bits + 0.1%.
    for _ in range(20):
        size = int(rng.integers(16, 256))
        table = _random_table(rng, size)
        p = np.diff(table) / FREQ_TOTAL
        symbols = rng.choice(size, size=2000, p=p).tolist()
        bits = encode(symbols, *_under(table, len(symbols)))
        ideal = float(-np.log2(p[symbols]).sum())
        assert bits.bit_length <= ideal + 64 + 0.001 * ideal


def test_determinism(rng):
    rows, cum = _under(_uniform_table(64), 500)
    symbols = rng.integers(0, 64, size=500).tolist()
    a = encode(symbols, rows, cum)
    b = encode(symbols, rows, cum)
    assert a.data == b.data


def test_truncated_stream_raises(rng):
    rows, cum = _under(_uniform_table(), 200)
    symbols = rng.integers(0, 256, size=200).tolist()
    bits = encode(symbols, rows, cum)
    truncated = Bitstring(bits.data[: len(bits.data) // 2])
    with pytest.raises(CorruptStreamError):
        _decode_one_channel(truncated, rows, cum)


def test_swapped_table_never_crashes(rng):
    skewed = _table(quantize_probs(
        np.concatenate(([0.99], np.full(255, 0.01 / 255)))
    ))
    uniform = _uniform_table()
    symbols = rng.integers(1, 256, size=100).tolist()
    bits = encode(symbols, *_under(uniform, 100))
    try:
        wrong = _decode_one_channel(bits, *_under(skewed, 100))
        assert wrong != symbols
    except CorruptStreamError:
        pass


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        encode([1, 2], *_under(_uniform_table(), 1))


def test_one_channel_block_bytes_are_pinned():
    # The three-argument call codes each symbol as a block of one
    # channel.
    symbols, rows, cum = _stream([(255, "dirichlet", 1), (40, "sparse", 2),
                                  (3, "skewed", 3)], 3000, 7)
    bits = encode(symbols, rows, cum)
    assert hashlib.sha256(bits.data).hexdigest() == (
        "e41e174636646e6f12403953726677c710fcb01373e41f86a2feb0f5026a84f8")


# Block code: one position's channels are a block, coded up to its last
# symbol that is not its row's likeliest.

@settings(max_examples=200, deadline=None)
@given(_block_streams(channels=(1, 2, 16, 64, 255), max_symbols=1530),
       st.data())
def test_blocks_round_trip(run, data):
    symbols, rows, cum, c = run
    row_peaks = peaks(cum)
    sent = block_steps(symbols, rows, cum, row_peaks, c)
    received = blocks(rows, cum, row_peaks, c)
    bits = encode(symbols, rows, cum, sent)
    assert decode(bits, rows, cum, received).tolist() == symbols
    # A run cut into two packets codes each cut alone.
    n = len(rows) // c
    cut = data.draw(st.integers(0, n))
    for lo, hi in ((0, cut), (cut, n)):
        part = slice(lo * c, hi * c)
        bits = encode(symbols[part], rows[part], cum, sent[lo:hi])
        assert decode(bits, rows[part], cum,
                      received[lo:hi]).tolist() == symbols[part]


def test_blocks_code_only_up_to_the_last_surprise():
    # A block of likeliest symbols costs k = 0 alone, far less than its
    # symbols as blocks of one channel; its surprises cost what they did.
    cum = _stack(_tables([(255, "dirichlet", 5)]))
    like = int(peaks(cum)[0, 0])
    rows = [0] * 64 * 50
    quiet = [like] * len(rows)
    row_peaks = peaks(cum)
    by_block = encode(quiet, rows, cum,
                      block_steps(quiet, rows, cum, row_peaks, 64))
    assert by_block.bit_length < encode(quiet, rows, cum).bit_length / 10
    loud = list(quiet)
    loud[63::64] = [(like + 1) % 255] * 50
    bits = encode(loud, rows, cum, block_steps(loud, rows, cum, row_peaks, 64))
    assert decode(bits, rows, cum,
                  blocks(rows, cum, row_peaks, 64)).tolist() == loud


_BLOCK_DAMAGES = ["none", "truncate", "flip", "junk", "short", "append"]


@settings(max_examples=300, deadline=None)
@given(_block_streams(channels=(1, 2, 16, 64), max_symbols=384),
       st.sampled_from(_BLOCK_DAMAGES), st.data())
def test_no_block_payload_crashes_the_decoder(run, damage, data):
    symbols, rows, cum, c = run
    row_peaks = peaks(cum)
    payload = encode(symbols, rows, cum,
                     block_steps(symbols, rows, cum, row_peaks, c)).data
    if damage == "append":
        bits = Bitstring(payload + data.draw(st.binary(min_size=1,
                                                       max_size=16)))
    else:
        bits = _damaged(payload, damage, data)
    try:
        got = decode(bits, rows, cum, blocks(rows, cum, row_peaks, c))
    except CorruptStreamError:
        return
    assert got.dtype == np.int64 and got.shape == (len(rows),)
    assert ((0 <= got) & (got < _WIDTH - 1)).all()
    if damage in ("none", "append"):
        assert got.tolist() == symbols


def test_a_value_outside_the_conditioned_total_is_corrupt():
    # One block of one channel whose likeliest symbol holds all but 7
    # counts.  The code below decodes k = 1, so the channel is read
    # under the 7 counts left; the range then holds 7 * r plus a
    # remainder, and a code in that remainder lies outside.
    cum = _table([FREQ_TOTAL - 7] + [1] * 7)[None]
    kcum = k_tables([[FREQ_TOTAL - 7]])[0].tolist()
    r = _MASK32 // FREQ_TOTAL
    left = r * (FREQ_TOTAL - kcum[1])  # the range after k = 1
    assert left < _TOP <= left << 8 and (left << 8) % 7
    assert ((left << 8) - 1) // ((left << 8) // 7) >= 7
    code = r * kcum[1] + left - 1
    bits = Bitstring(code.to_bytes(4, "big") + b"\xff")
    with pytest.raises(CorruptStreamError, match="out of range"):
        decode(bits, [0], cum, blocks([0], cum, peaks(cum), 1))


def _k_tables_are_valid(kcum, channels):
    assert kcum.shape[1] == channels + 2
    assert (kcum[:, 0] == 0).all() and (kcum[:, -1] == FREQ_TOTAL).all()
    assert (np.diff(kcum, axis=1) >= 1).all()


def test_k_tables_give_every_k_a_count():
    rng = np.random.default_rng(0)
    for channels in range(1, 256):
        counts = np.stack([np.full(channels, 1), np.full(channels,
                                                         FREQ_TOTAL - 1),
                           rng.integers(1, FREQ_TOTAL, size=channels)])
        _k_tables_are_valid(k_tables(counts), channels)


# k's tables of a fixed set of blocks, printed as a digest by a child
# process, so that a run with numpy's AVX-512 loops switched off can be
# compared with one that has them.
_K_TABLE_DIGEST = """
import hashlib, numpy as np
from resicomp.entropy_coder import k_tables
rng = np.random.default_rng(7)
h = hashlib.sha256()
for channels in (1, 2, 16, 64, 255):
    counts = rng.integers(1, 65536, size=(200, channels))
    counts[:50] = rng.integers(60000, 65536, size=(50, channels))
    h.update(k_tables(counts).tobytes())
print(h.hexdigest())
"""
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _k_table_digest(**env):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH",
                                                              "")])}
    return subprocess.run([sys.executable, "-c", _K_TABLE_DIGEST], env=env,
                          capture_output=True, text=True)


def test_k_tables_do_not_depend_on_the_cpu():
    plain = _k_table_digest()
    assert plain.returncode == 0, plain.stderr
    masked = _k_table_digest(NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
    if masked.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in masked.stderr:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES here: "
                    + masked.stderr.strip().splitlines()[-1])
    assert masked.returncode == 0, masked.stderr
    assert masked.stdout == plain.stdout
