from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp.density import FREQ_TOTAL, FreqTable, quantize_probs
from resicomp.entropy_coder import (Bitstring, CorruptStreamError, decode,
                                    encode)

# The reference coder: the two stateful classes that `encode` and
# `decode` replaced, kept verbatim but for their tables' type.  They
# read tables through the `FreqTable` methods of that time, which
# `_ReferenceTable` provides over one row of a table array.

_TOP = 1 << 24
_MASK32 = (1 << 32) - 1


class _ReferenceTable:
    total = FREQ_TOTAL

    def __init__(self, row):
        self._cum = row.tolist()

    def low_high(self, index):
        cum = self._cum
        return cum[index], cum[index + 1]

    def find(self, value):
        """Index of the symbol whose cumulative span contains value."""
        return bisect_right(self._cum, value) - 1


class RangeEncoder:
    def __init__(self):
        self.low = 0  # holds up to 33 bits until the carry is flushed
        self.range = _MASK32
        self.cache = 0
        self.pending = 0
        self.started = False
        self.out = bytearray()

    def encode(self, table: _ReferenceTable, index: int):
        low_count, high_count = table.low_high(index)
        r = self.range // table.total
        self.low += r * low_count
        self.range = r * (high_count - low_count)
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

    def decode(self, table: _ReferenceTable) -> int:
        r = self.range // table.total
        value = self.code // r
        if value >= table.total:
            raise CorruptStreamError("decoder state out of range")
        index = table.find(value)
        low_count, high_count = table.low_high(index)
        self.code -= r * low_count
        self.range = r * (high_count - low_count)
        while self.range < _TOP:
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32
            self.range = (self.range << 8) & _MASK32
        if self.code >= self.range:
            raise CorruptStreamError("decoder state overflow")
        return index


def reference_encode(indices, tables) -> Bitstring:
    """Encode symbol indices, one _ReferenceTable per symbol."""
    indices = list(indices)
    tables = list(tables)
    if len(indices) != len(tables):
        raise ValueError("one table per symbol required")
    enc = RangeEncoder()
    for idx, table in zip(indices, tables):
        enc.encode(table, idx)
    return enc.finish()


def reference_decode(bits: Bitstring, tables) -> list:
    """Decode exactly len(tables) symbol indices."""
    dec = RangeDecoder(bits)
    return [dec.decode(table) for table in tables]


def _table(counts):
    """The cumulative row of one row of counts."""
    return FreqTable.batch(np.asarray(counts)[None])[0]


def _under(table, n):
    """(rows, cum) that put n symbols under one table."""
    return [0] * n, table[None]


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


_KINDS = ("dirichlet", "sparse", "skewed")


def _tables(specs):
    """Cumulative rows of the tables given as (alphabet size, kind,
    seed).  A "sparse" table holds most symbols at the floor count of 1
    and a "skewed" one all but size - 1 counts on one symbol."""
    tables = []
    for size, kind, table_seed in specs:
        rng = np.random.default_rng(table_seed)
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


_SPECS = st.lists(st.tuples(st.integers(2, 300), st.sampled_from(_KINDS),
                            st.integers(0, 2**32 - 1)),
                  min_size=1, max_size=4)


@st.composite
def _streams(draw, max_symbols=2000):
    """Streams of 0..max_symbols symbols under one to four tables over
    2..300 symbols."""
    return _stream(draw(_SPECS), draw(st.integers(0, max_symbols)),
                   draw(st.integers(0, 2**32 - 1)))


def _reference_tables(rows, cum):
    return [_ReferenceTable(cum[row]) for row in rows]


@settings(max_examples=150, deadline=None)
@given(_streams())
def test_encode_matches_the_reference(stream):
    symbols, rows, cum = stream
    expected = reference_encode(symbols, _reference_tables(rows, cum))
    assert encode(symbols, rows, cum).data == expected.data


def _reference_outcome(bits, rows, cum):
    try:
        return reference_decode(bits, _reference_tables(rows, cum))
    except CorruptStreamError:
        return CorruptStreamError


def _outcome(bits, rows, cum):
    try:
        return decode(bits, rows, cum)
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
@given(_streams(max_symbols=300), st.sampled_from(_DAMAGES), st.data())
def test_decode_matches_the_reference_on_any_payload(stream, damage, data):
    symbols, rows, cum = stream
    bits = _damaged(reference_encode(
        symbols, _reference_tables(rows, cum)).data, damage, data)
    if damage == "short" and data.draw(st.booleans()):
        rows = []
    assert _outcome(bits, rows, cum) == _reference_outcome(bits, rows, cum)
    if damage == "none":
        assert _outcome(bits, rows, cum) == symbols


@settings(max_examples=150, deadline=None)
@given(_streams(max_symbols=300), _SPECS, st.integers(0, 2**32 - 1),
       st.sampled_from(_DAMAGES), st.data())
def test_rows_among_other_rows_code_as_the_reference(stream, other_specs,
                                                     seed, damage, data):
    # The stream's tables sit at scattered rows of one array, next to
    # other tables; the coder must read each symbol's row and no other.
    symbols, rows, cum = stream
    others = _stack(_tables(other_specs))
    place = np.random.default_rng(seed).permutation(len(cum) + len(others))
    mixed = np.empty((len(place), _WIDTH), dtype=np.int32)
    mixed[place] = np.concatenate([cum, others])
    moved = place[rows].tolist()
    bits = reference_encode(symbols, _reference_tables(rows, cum))
    assert encode(symbols, moved, mixed).data == bits.data
    bits = _damaged(bits.data, damage, data)
    assert _outcome(bits, moved, mixed) == _reference_outcome(bits, rows, cum)


def test_stream_strategy_reaches_carries_into_pending_bytes():
    # A carry into 0xFF bytes held back is the coder's hardest path;
    # the streams above must reach it.
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
        specs = [(int(rng.integers(2, 301)), kind, seed) for kind in _KINDS]
        symbols, rows, cum = _stream(specs, 2000, seed)
        enc = Observed()
        for idx, table in zip(symbols, _reference_tables(rows, cum)):
            enc.encode(table, idx)
        enc.finish()
    assert events == {"carry", "pending", "carry into pending"}


def test_empty_payload_is_small():
    rows, cum = _under(_uniform_table(), 0)
    bits = encode([], rows, cum)
    assert bits.bit_length <= 64
    assert decode(bits, rows, cum) == []


def test_uniform_256_codes_at_eight_bits(rng):
    rows, cum = _under(_uniform_table(), 1000)
    symbols = rng.integers(0, 256, size=1000).tolist()
    bits = encode(symbols, rows, cum)
    assert 8000 <= bits.bit_length <= 8000 + 64 + 8
    assert decode(bits, rows, cum) == symbols


def test_roundtrip_random_tables(rng):
    for _ in range(50):
        size = int(rng.integers(2, 300))
        n = int(rng.integers(1, 200))
        cum = np.stack([_random_table(rng, size) for _ in range(min(n, 5))])
        rows = [i % len(cum) for i in range(n)]
        symbols = [int(rng.integers(0, size)) for _ in range(n)]
        bits = encode(symbols, rows, cum)
        assert decode(bits, rows, cum) == symbols


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
    assert decode(bits, rows, cum) == symbols


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
        decode(truncated, rows, cum)


def test_swapped_table_never_crashes(rng):
    skewed = _table(quantize_probs(
        np.concatenate(([0.99], np.full(255, 0.01 / 255)))
    ))
    uniform = _uniform_table()
    symbols = rng.integers(1, 256, size=100).tolist()
    bits = encode(symbols, *_under(uniform, 100))
    try:
        wrong = decode(bits, *_under(skewed, 100))
        assert wrong != symbols
    except CorruptStreamError:
        pass


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        encode([1, 2], *_under(_uniform_table(), 1))
