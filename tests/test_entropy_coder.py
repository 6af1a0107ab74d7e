import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp.density import FREQ_TOTAL, FreqTable, quantize_probs
from resicomp.entropy_coder import (Bitstring, CorruptStreamError,
                                    RangeDecoder, decode, encode)


def _table(counts):
    """The table of one row of counts."""
    return FreqTable.batch(np.asarray(counts)[None])[0]


def _uniform_table(size=256):
    return _table(np.full(size, FREQ_TOTAL // size, dtype=np.int64))


def _random_table(rng, size):
    probs = rng.dirichlet(np.full(size, 0.3))
    return _table(quantize_probs(probs))


def test_empty_payload_is_small():
    bits = encode([], [])
    assert bits.bit_length <= 64
    assert decode(bits, []) == []


def test_uniform_256_codes_at_eight_bits(rng):
    table = _uniform_table()
    symbols = rng.integers(0, 256, size=1000).tolist()
    bits = encode(symbols, [table] * 1000)
    assert 8000 <= bits.bit_length <= 8000 + 64 + 8
    assert decode(bits, [table] * 1000) == symbols


def test_roundtrip_random_tables(rng):
    for _ in range(50):
        size = int(rng.integers(2, 300))
        n = int(rng.integers(1, 200))
        tables = [_random_table(rng, size) for _ in range(min(n, 5))]
        tables = [tables[i % len(tables)] for i in range(n)]
        symbols = [int(rng.integers(0, size)) for _ in range(n)]
        bits = encode(symbols, tables)
        assert decode(bits, tables) == symbols


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
    bits = encode(symbols, [table] * len(symbols))
    assert decode(bits, [table] * len(symbols)) == symbols


def test_efficiency_bound(rng):
    # Measured bits <= table cross-entropy + 64 bits + 0.1%.
    for _ in range(20):
        size = int(rng.integers(16, 256))
        table = _random_table(rng, size)
        p = table.counts / FREQ_TOTAL
        symbols = rng.choice(size, size=2000, p=p).tolist()
        bits = encode(symbols, [table] * len(symbols))
        ideal = float(-np.log2(p[symbols]).sum())
        assert bits.bit_length <= ideal + 64 + 0.001 * ideal


def test_determinism(rng):
    table = _uniform_table(64)
    symbols = rng.integers(0, 64, size=500).tolist()
    a = encode(symbols, [table] * 500)
    b = encode(symbols, [table] * 500)
    assert a.data == b.data


def test_truncated_stream_raises(rng):
    table = _uniform_table()
    symbols = rng.integers(0, 256, size=200).tolist()
    bits = encode(symbols, [table] * 200)
    truncated = Bitstring(bits.data[: len(bits.data) // 2])
    with pytest.raises(CorruptStreamError):
        decode(truncated, [table] * 200)


def test_swapped_table_never_crashes(rng):
    skewed = _table(quantize_probs(
        np.concatenate(([0.99], np.full(255, 0.01 / 255)))
    ))
    uniform = _uniform_table()
    symbols = rng.integers(1, 256, size=100).tolist()
    bits = encode(symbols, [uniform] * 100)
    try:
        wrong = decode(bits, [skewed] * 100)
        assert wrong != symbols
    except CorruptStreamError:
        pass


def test_decoder_consumes_tables_lazily(rng):
    # Table n+1 may be chosen from symbol n: the conditional-decode loop.
    tables = [_uniform_table(16), _uniform_table(32)]
    symbols = [3, 20]
    bits = encode(symbols, tables)
    dec = RangeDecoder(bits)
    first = dec.decode(tables[0])
    assert first == 3
    second_table = tables[1] if first == 3 else tables[0]
    assert dec.decode(second_table) == 20


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        encode([1, 2], [_uniform_table()])
