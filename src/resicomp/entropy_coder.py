"""Bit-exact 32-bit range coder driven by integer frequency tables.

Carry-propagating byte renormalization in the classic cache/pending
style.  `encode` and `decode` each run one loop over a slice's symbols
and read every table's cumulative counts, `FreqTable.cum`, directly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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


def encode(indices, tables) -> Bitstring:
    """Encode symbol indices, one FreqTable per symbol."""
    indices = list(indices)
    tables = list(tables)
    if len(indices) != len(tables):
        raise ValueError("one table per symbol required")
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
    for index, table in zip(indices, tables):
        cum = table.cum
        r = rng // FREQ_TOTAL
        low_count = cum[index]
        low += r * low_count
        rng = r * (cum[index + 1] - low_count)
        while rng < _TOP:
            low, cache, pending = shift(low, cache, pending)
            rng <<= 8
    for _ in range(5):
        low, cache, pending = shift(low, cache, pending)
    # Until the first shift low + rng < 2**32, so no carry reaches the
    # leading byte: it is always zero and is not sent.
    return Bitstring(bytes(out[1:]))


def decode(bits: Bitstring, tables) -> list:
    """Decode exactly len(tables) symbol indices."""
    data = bits.data
    if len(data) < 4:
        raise CorruptStreamError("bitstring exhausted")
    code = int.from_bytes(data[:4], "big")
    pos, rng = 4, _MASK32
    symbols = []
    for table in tables:
        cum = table.cum
        r = rng // FREQ_TOTAL
        value = code // r
        if value >= FREQ_TOTAL:
            raise CorruptStreamError("decoder state out of range")
        index = bisect_right(cum, value) - 1
        low_count = cum[index]
        code -= r * low_count
        rng = r * (cum[index + 1] - low_count)
        while rng < _TOP:
            if pos >= len(data):
                raise CorruptStreamError("bitstring exhausted")
            code = ((code << 8) | data[pos]) & _MASK32
            pos += 1
            rng <<= 8
        if code >= rng:
            raise CorruptStreamError("decoder state overflow")
        symbols.append(index)
    return symbols
