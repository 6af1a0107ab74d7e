"""Bit-exact 32-bit range coder driven by integer frequency tables.

Carry-propagating byte renormalization in the classic cache/pending
style.  The tables are the rows of one (N, S+1) int32 array of
cumulative counts, as `FreqTable.batch` makes them, and each symbol
names its table by row number.  `encode` and `decode` each run one loop
over a run's coding steps, laid out block by block, the payload layout
since packet version 4 (`encode(indices, rows, cum, steps)` with the
sender's `block_steps`, `decode(bits, rows, cum, blocks)` with the
receiver's `blocks`).  A block is one position's `channels` symbols.
It codes k first, 1 + the index of its last symbol that is not its
row's likeliest symbol (`peaks`), or 0 if there is none; then its
symbols below k - 1, each under its own table; then symbol k - 1 under
its table with the likeliest symbol taken out.  The symbols from k on
are their likeliest symbols, as JPEG ends a block's scan at its last
nonzero coefficient (ITU-T T.81).

k's table is not a model parameter: it follows from the block's own
tables (`k_tables`), so both ends build it from what they hold.  Each
end lays out a whole run at once, and a packet's call codes its cut.

`decode` tries each symbol's likeliest span before it searches the
symbol's table.
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


def peaks(cum) -> np.ndarray:
    """(N, 2): each row's likeliest symbol, the first of its largest
    counts, and that count."""
    counts = np.diff(cum, axis=1)
    like = np.argmax(counts, axis=1)
    return np.stack([like, counts[np.arange(len(counts)), like]], axis=1)


def k_tables(counts) -> np.ndarray:
    """(P, C + 2) int64 cumulative counts of k, one row per block, from
    the (P, C) counts of its symbols' likeliest symbols.

    With T_i the product of `count / FREQ_TOTAL` over channels i..C-1
    (T_C = 1), `cum[j] = floor(T_{j-1} * (FREQ_TOTAL - C - 1)) + j` for
    j = 1..C+1 and `cum[0] = 0`.  So k = j gets about T_j - T_{j-1} of
    the total (k = 0 about T_0): its chance if the channels were
    independent.  Each count is at least 1, since T only grows with i,
    and the last entry is FREQ_TOTAL.  Every step is one correctly
    rounded float64 product, in a fixed order, or a floor, so the tables
    are the same on every CPU.
    """
    counts = np.asarray(counts)
    blocks, channels = counts.shape
    # tail[i] is T_{C-1-i}, one column per block.
    tail = counts.T[::-1] / FREQ_TOTAL
    np.multiply.accumulate(tail, axis=0, out=tail)
    tail *= FREQ_TOTAL - channels - 1
    np.floor(tail, out=tail)
    cum = np.empty((blocks, channels + 2), np.int64)
    cum[:, 0] = 0
    cum[:, channels:0:-1] = tail.T
    cum[:, 1:channels + 1] += np.arange(1, channels + 1)
    cum[:, -1] = FREQ_TOTAL
    return cum


class Blocks:
    """The decoder's view of a run of positions coded block by block:
    each symbol's likeliest symbol (`like`), the span [`low`, `high`) of
    it in the symbol's row, and each block's table of k (`kcum`, (P,
    C + 2)).  `blocks` makes one for a whole run, and `blocks[lo:hi]`
    cuts out positions lo..hi - 1 in a few array views.

    This and `Steps` are plain classes, not dataclasses: perfbench
    imports the library afresh for each set-up, and each dataclass
    costs a fraction of a millisecond to define.
    """

    __slots__ = ("channels", "like", "low", "high", "kcum")

    def __init__(self, channels, like, low, high, kcum):
        self.channels, self.like, self.low = channels, like, low
        self.high, self.kcum = high, kcum

    def __getitem__(self, at: slice) -> Blocks:
        symbols = slice(at.start * self.channels, at.stop * self.channels)
        return Blocks(self.channels, self.like[symbols], self.low[symbols],
                      self.high[symbols], self.kcum[at.start:at.stop])


def blocks(rows, cum, row_peaks, channels: int) -> Blocks:
    """The blocks of `channels` symbols each, position-major, with
    symbol i under row `rows[i]` of `cum` and `row_peaks` the `peaks` of
    every row."""
    rows = np.asarray(rows, dtype=np.intp)
    like, count = np.take(row_peaks, rows, axis=0).T
    low = cum.reshape(-1)[rows * cum.shape[1] + like]
    return Blocks(channels, like, low, low + count,
                  k_tables(count.reshape(-1, channels)))


class Steps:
    """The encoder's view of a run of blocks: `spans`, the (3, steps)
    rows of low, freq and total of each coding step in order, and
    `cuts`, the first step of each block and of the end.  `block_steps`
    makes one for a whole run, and `steps[lo:hi]` cuts out the steps of
    positions lo..hi - 1 as a view."""

    __slots__ = ("spans", "cuts")

    def __init__(self, spans, cuts):
        self.spans, self.cuts = spans, cuts

    def __getitem__(self, at: slice) -> Steps:
        return Steps(self.spans[:, self.cuts[at.start]:self.cuts[at.stop]],
                     self.cuts[at.start:at.stop + 1])


def block_steps(indices, rows, cum, row_peaks, channels: int) -> Steps:
    """The coding steps of `indices` as blocks of `channels` symbols
    each, position-major, with symbol i under row `rows[i]` of `cum` and
    `row_peaks` the `peaks` of every row."""
    rows = np.asarray(rows, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    like, count = np.take(row_peaks, rows, axis=0).T
    kcum = k_tables(count.reshape(-1, channels))
    k = ((indices != like).reshape(-1, channels)
         * np.arange(1, channels + 1)).max(axis=1)
    # A block's first step codes k, its next ones its channels below k.
    cuts = np.zeros(len(k) + 1, np.intp)
    np.cumsum(k + 1, out=cuts[1:])
    spans = np.empty((3, cuts[-1]), np.int64)
    lows, freqs, totals = spans
    totals[:] = FREQ_TOTAL
    block = np.arange(len(k))
    lows[cuts[:-1]] = kcum[block, k]
    freqs[cuts[:-1]] = kcum[block, k + 1] - lows[cuts[:-1]]
    coded = np.flatnonzero(np.arange(channels) < k[:, None])
    at = coded + np.repeat(cuts[:-1] + 1 - block * channels, k)
    flat = cum.reshape(-1)
    starts = rows[coded] * cum.shape[1] + indices[coded]
    low = flat[starts]
    lows[at] = low
    freqs[at] = flat[starts + 1] - low
    # The last coded symbol of a block is not its likeliest one, whose
    # span is taken out of its table: the symbols above it move down.
    ends = k > 0
    last = (block * channels + k - 1)[ends]
    at = cuts[1:][ends] - 1
    taken = count[last]
    lows[at] -= np.where(indices[last] > like[last], taken, 0)
    totals[at] -= taken
    return Steps(spans, cuts)


def encode(indices, rows, cum, steps: Steps | None = None) -> Bitstring:
    """Encode symbol indices, symbol i under table `cum[rows[i]]`, by
    `steps`, the `block_steps` of these indices and rows; by default
    each symbol is a block of one channel."""
    if len(indices) != len(rows):
        raise ValueError("one table per symbol required")
    if steps is None:
        cum = cum[np.asarray(rows, dtype=np.intp)]
        steps = block_steps(indices, np.arange(len(cum)), cum, peaks(cum), 1)
    return _encode(*steps.spans.tolist())


def _encode(lows, freqs, totals) -> Bitstring:
    """The range code of the steps: each narrows the range to its span
    [low, low + freq) of its total."""
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
    for low_count, freq, total in zip(lows, freqs, totals):
        r = rng // total
        low += r * low_count
        rng = r * freq
        while rng < _TOP:
            # `shift`, written out: a call per byte would cost a third
            # of the loop.
            if low < 0xFF000000 or low > _MASK32:
                carry = low >> 32
                out.append((cache + carry) & 0xFF)
                if pending:
                    out.extend((b"\x00" if carry else b"\xff") * pending)
                    pending = 0
                cache = (low >> 24) & 0xFF
            else:
                pending += 1
            low = (low << 8) & _MASK32
            rng <<= 8
    for _ in range(5):
        low, cache, pending = shift(low, cache, pending)
    # Until the first shift low + rng < 2**32, so no carry reaches the
    # leading byte: it is always zero and is not sent.
    return Bitstring(bytes(out[1:]))


def decode(bits: Bitstring, rows, cum, blocks: Blocks) -> np.ndarray:
    """Decode exactly len(rows) symbol indices, symbol i under table
    `cum[rows[i]]`, coded as `blocks`, the `blocks` of these rows: an
    int64 array of the blocks' likeliest symbols with each decoded
    surprise written in.

    A symbol whose likeliest span holds the decoder's value takes it;
    the decoder bisects the symbol's row only on a miss.  Every row must
    hold two or more symbols of nonzero count.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    if len(blocks.like) != len(rows):
        raise ValueError("the blocks are not those of the rows")
    # Items of a memoryview index as Python ints, so the loop's
    # arithmetic stays in plain Python; only the symbols it codes are
    # read.
    at, surprises = _decode(
        bits.data, memoryview(cum.reshape(-1)), cum.shape[1],
        memoryview(rows), memoryview(blocks.low), memoryview(blocks.high),
        memoryview(np.ascontiguousarray(blocks.kcum).reshape(-1)),
        blocks.channels)
    symbols = blocks.like.astype(np.int64)
    symbols[at] = surprises
    return symbols


def _decode(data, flat, width, rows, lows, highs, kcum,
            channels) -> tuple[list, list]:
    """The surprises in data, as lists of their indices and symbols: a
    block of `channels` symbols per row of `kcum`, k's tables flattened.

    Symbol j's table is row `rows[j]` of `flat`, the table array's
    items, and its likeliest symbol spans [lows[j], highs[j]).
    """
    if len(data) < 4:
        raise CorruptStreamError("bitstring exhausted")
    code = int.from_bytes(data[:4], "big")
    rng = _MASK32
    rest = iter(data[4:])
    at, surprises = [], []
    # Each step keeps code < rng: the value lies in its symbol's span.
    # So a shifted code stays below 2**32, and no state can overflow.
    base = 0
    try:
        for kbase in range(0, len(kcum), channels + 2):
            r = rng // FREQ_TOTAL
            value = code // r
            if value >= FREQ_TOTAL:
                raise CorruptStreamError("decoder state out of range")
            index = bisect_right(kcum, value, kbase, kbase + channels + 2) - 1
            k, low = index - kbase, kcum[index]
            code -= r * low
            rng = r * (kcum[index + 1] - low)
            while rng < _TOP:
                code = (code << 8) | next(rest)
                rng <<= 8
            for j in range(base, base + k - 1):
                low, high = lows[j], highs[j]
                r = rng // FREQ_TOTAL
                value = code // r
                if not low <= value < high:
                    if value >= FREQ_TOTAL:
                        raise CorruptStreamError("decoder state out of range")
                    start = rows[j] * width
                    index = bisect_right(flat, value, start,
                                         start + width) - 1
                    at.append(j)
                    surprises.append(index - start)
                    low, high = flat[index], flat[index + 1]
                code -= r * low
                rng = r * (high - low)
                while rng < _TOP:
                    code = (code << 8) | next(rest)
                    rng <<= 8
            if k:
                # The last coded symbol is not the likeliest one, whose
                # span [like_low, like_high) is taken out of its table.
                j = base + k - 1
                like_low, start = lows[j], rows[j] * width
                taken = highs[j] - like_low
                total = FREQ_TOTAL - taken
                r = rng // total
                value = code // r
                if value >= total:
                    raise CorruptStreamError("decoder state out of range")
                above = taken if value >= like_low else 0
                index = bisect_right(flat, value + above, start,
                                     start + width) - 1
                at.append(j)
                surprises.append(index - start)
                low = flat[index]
                code -= r * (low - above)
                rng = r * (flat[index + 1] - low)
                while rng < _TOP:
                    code = (code << 8) | next(rest)
                    rng <<= 8
            base += channels
    except StopIteration:
        raise CorruptStreamError("bitstring exhausted") from None
    return at, surprises
