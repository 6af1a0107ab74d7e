"""Bit-exact 32-bit range coder driven by integer frequency tables.

Carry-propagating byte renormalization in the classic cache/pending
style.  The tables are the rows of one (N, S+1) int32 array of
cumulative counts, as `FreqTable.batch` makes them, and each symbol
names its table by row number.  `encode` and `decode` each run one loop
over a slice's symbols; `decode` tries each symbol's guessed span, its
table's likeliest symbol by default, before it searches the table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .density import FREQ_TOTAL

_TOP = 1 << 24
_MASK32 = (1 << 32) - 1


class CorruptStreamError(Exception):
    """The bitstring is truncated or inconsistent with the tables."""


@dataclass(frozen=True)
class Bitstring:
    data: bytes

    @property
    def bit_length(self):
        return 8 * len(self.data)


def encode(indices, rows, cum) -> Bitstring:
    """Encode symbol indices, symbol i under table `cum[rows[i]]`."""
    indices = np.asarray(indices, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    if len(indices) != len(rows):
        raise ValueError("one table per symbol required")
    # Every symbol's span, gathered before the loop.
    lows = cum[rows, indices]
    freqs = (cum[rows, indices + 1] - lows).tolist()
    out = bytearray()

    def shift(low, cache, pending):
        """Move low's top byte out: (low, cache, pending) after it."""
        if low < 0xFF000000 or low > _MASK32:
            carry = low >> 32
            out.append((cache + carry) & 0xFF)
            out.extend((b"\x00" if carry else b"\xff") * pending)
            return (low << 8) & _MASK32, (low >> 24) & 0xFF, 0
        return (low << 8) & _MASK32, cache, pending + 1

    # low holds up to 33 bits until the carry is flushed.
    low, rng, cache, pending = 0, _MASK32, 0, 0
    for low_count, freq in zip(lows.tolist(), freqs):
        r = rng // FREQ_TOTAL
        low += r * low_count
        rng = r * freq
        while rng < _TOP:
            low, cache, pending = shift(low, cache, pending)
            rng <<= 8
    for _ in range(5):
        low, cache, pending = shift(low, cache, pending)
    # Until the first shift low + rng < 2**32, so no carry reaches the
    # leading byte: it is always zero and is not sent.
    return Bitstring(bytes(out[1:]))


def likeliest(cum) -> np.ndarray:
    """Each row's likeliest symbol: the first of its largest counts."""
    return np.argmax(np.diff(cum, axis=1), axis=1)


def decode(bits: Bitstring, rows, cum, guess=None) -> list:
    """Decode exactly len(rows) symbol indices, symbol i under table
    `cum[rows[i]]`.

    Symbol i first tries `guess[rows[i]]`, by default its row's
    `likeliest` symbol, and bisects its row only when the value lies
    outside that symbol's span.  A span that holds the value is the one
    the bisection finds, so any guesses give the same symbols, and raise
    where the bisection alone raises.
    """
    width = cum.shape[1]
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    if guess is None:
        used, rows_of = np.unique(rows, return_inverse=True)
        guesses = likeliest(cum[used])[rows_of]
    else:
        guesses = np.asarray(guess, dtype=np.intp)[rows]
    # Every guess's span, gathered before the loop.
    lows = cum[rows, guesses]
    highs = cum[rows, guesses + 1]
    # Items of a memoryview index as Python ints, so the loop's
    # arithmetic stays in plain Python.
    flat = memoryview(cum.reshape(-1))
    data = bits.data
    if len(data) < 4:
        raise CorruptStreamError("bitstring exhausted")
    code = int.from_bytes(data[:4], "big")
    pos, rng = 4, _MASK32
    symbols = []
    for start, symbol, low, high in zip((rows * width).tolist(),
                                        guesses.tolist(), lows.tolist(),
                                        highs.tolist()):
        r = rng // FREQ_TOTAL
        value = code // r
        if value >= FREQ_TOTAL:
            raise CorruptStreamError("decoder state out of range")
        if not low <= value < high:
            index = bisect_right(flat, value, start, start + width) - 1
            symbol = index - start
            low, high = flat[index], flat[index + 1]
        code -= r * low
        rng = r * (high - low)
        while rng < _TOP:
            if pos >= len(data):
                raise CorruptStreamError("bitstring exhausted")
            code = ((code << 8) | data[pos]) & _MASK32
            pos += 1
            rng <<= 8
        if code >= rng:
            raise CorruptStreamError("decoder state overflow")
        symbols.append(symbol)
    return symbols
