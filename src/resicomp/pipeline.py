"""End-to-end sender, receiver and progressive decoding.

A packet header describes its whole stream: `stream_header` maps a
config and an image size to it, and a `Stream` maps it back to the
mode, slice plan, codec and prior.  `Stream.model` runs the context
model on a set of slices in one pass, each position reading only its
own slice's context slices, so a slice's tables are the same whichever
slices share the pass.  `send` holds every slice, so it models them all
in one pass with the `Stream` of the header it writes and codes each
slice's symbols into one packet; a `Receiver` is the `Stream` of the
header it is given and decodes in the iterations of
`iteration_schedule`: one pass of the same `model`, on its grid as it
stands, for every ready slice of a context depth.  A payload codes each
position's channels as one block, up to its last symbol that is not its
table's likeliest; each end lays out the blocks of a whole pass at once
(`entropy_coder.block_steps` and `blocks`), so a packet's `encode` or
`decode` call only cuts out its own.  It is a session:
packets are added one at a time, in any order, and each slice is
entropy-decoded once, as soon as its packet and its full context
closure are in.  `Receiver.add` is the one rule for which packet a
slice holds: the first of the session's own stream; later copies are
ignored, and a slice that only other streams' packets reached is
rejected.  A session keeps one state per slice, and its result
conceals all still-masked tokens, synthesizes the image and says per
slice whether it was decoded, lost, orphaned by a context slice,
corrupt, or rejected; the concealed grid and the image are made again
only once another slice has decoded.  The session keeps its
concealment sums (`predictor.RunningSums`): its first concealment
computes the window sums at the masked positions once, and each later
one adds only the terms of the tokens decoded since.
`receive` hands a session every packet its flags keep;
`progressive_receive` keeps one session across every prefix of a
packet list, in list order.  The context model runs only at the
positions of the slices it is given, so its window sums cost work in
proportion to those slices, not the grid.

A stream's mode, slice plan and context depths depend only on a few
header fields, so the process builds them once (`stream_layout`, which
keeps the last 16), and the uninformed prior once per channel count and
clamp (`default_prior`): a receive reuses what its send built.
A table depends only on its key, the prior and the clamp, so the process
keeps one `TableStore` per (prior fingerprint, clamp), made when a stream
first needs it: every stream of that prior and clamp, at either end and
in any thread, builds each table once.  A stream that opens while the
stores hold STORE_CAP_BYTES of rows drops them all; a live stream keeps
the store it opened with, so no stream sees its rows move.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import entropy_coder
from .context_modes import (DEFAULT_BETA, MODE_PARAM, context_depths,
                            make_mode, preset_id)
from .density import (FreqTable, discretize_batch, key_mixtures, mixture_keys,
                      quantize_probs)
from .image_io import psnr_db
from .partition import build_plan
from .predictor import (PriorModel, RunningSums, collect_context, conceal,
                        default_prior, predict)
from .token_codec import BLOCK, CodecConfig, TokenGrid, analyze, synthesize
from .transport import Packet, PacketHeader

FAILED_PSNR_DB = 13.0

OUTCOME_LOSSLESS = "lossless"
OUTCOME_CONCEALED = "concealed"
OUTCOME_FAILED = "failed"


@dataclass(frozen=True)
class PipelineConfig:
    codec: CodecConfig = field(default_factory=CodecConfig)
    mode_kind: str = "LC"
    l: int = 10
    mode_params: dict = field(default_factory=dict)
    beta: float | None = None  # None = mode default
    plan_seed: int = 0
    image_id: int = 0
    prior: PriorModel | None = None  # None = uninformed default

    def get_prior(self) -> PriorModel:
        if self.prior is not None:
            return self.prior
        return default_prior(self.codec.channels, self.codec.clamp)


# Keys per table build.  A chunk's float64 temporaries are a few
# hundred KB at 255 symbols; one batch for a whole 512x512 stream's
# thousands of keys would raise the peak memory by megabytes.
TABLE_CHUNK = 256


class TableStore:
    """The frequency tables of one prior and clamp: rows of one int32
    array of cumulative counts, and the row of each key, each built once.

    A table is a function of its key, the prior and the clamp: the store
    builds a key's table from `key_mixtures(key, prior)` alone, so it may
    meet the keys in any order, and any streams of that prior and clamp
    may share it (`table_store` gives the process's).  The array grows
    by doubling and a row keeps its number.  Each row's likeliest symbol
    and its count are kept beside it (`entropy_coder.peaks`), for the
    block code of both ends.  The build calls
    `discretize_batch`, `quantize_probs` and `FreqTable.batch` by this
    module's names, so wrappers around them see every table built.

    Threads may share a store: a lock covers each lookup, growth and
    build.  Rows handed out need none, since growth copies them into a
    new array and leaves the old one as it was.
    """

    def __init__(self, prior: PriorModel, clamp: int):
        self.prior = prior
        self.clamp = clamp
        self._rows = {}  # key -> row number
        self._cum = np.empty((0, 2 * clamp + 2), np.int32)
        self._peaks = np.empty((0, 2), np.intp)  # (symbol, count) per row
        self._lock = threading.Lock()

    @property
    def peaks(self) -> np.ndarray:
        """The `entropy_coder.peaks` of each row held."""
        with self._lock:
            return self._peaks[:len(self._rows)]

    def __len__(self):
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        """Bytes of the rows held."""
        return len(self._rows) * self._cum.shape[1] * self._cum.itemsize

    def tables(self, output):
        """(cum, rows): the tables held, and the row of each symbol of
        `output` in `mixture_keys` order.

        The keys not held yet are built in chunks of TABLE_CHUNK, so the
        build's temporaries stay small however many keys a call meets.
        """
        keys, inverse = np.unique(mixture_keys(output), return_inverse=True)
        with self._lock:
            held = self._rows
            rows = np.array([held.get(k, -1) for k in keys.tolist()], np.intp)
            new = rows < 0
            if new.any():
                fresh = keys[new]
                start, end = len(held), len(held) + len(fresh)
                if end > len(self._cum):
                    grown = np.empty((max(end, 2 * start), self._cum.shape[1]),
                                     np.int32)
                    grown[:start] = self._cum[:start]
                    self._cum = grown
                    peaks = np.empty((len(grown), 2), np.intp)
                    peaks[:start] = self._peaks[:start]
                    self._peaks = peaks
                for lo in range(0, len(fresh), TABLE_CHUNK):
                    chunk = fresh[lo:lo + TABLE_CHUNK]
                    at = slice(start + lo, start + lo + len(chunk))
                    self._cum[at] = FreqTable.batch(quantize_probs(
                        discretize_batch(*key_mixtures(chunk, self.prior),
                                         self.clamp)))
                    self._peaks[at] = entropy_coder.peaks(self._cum[at])
                rows[new] = np.arange(start, end)
                held.update(zip(fresh.tolist(), range(start, end)))
            return self._cum[:len(held)], rows[inverse]


# Bytes of rows that the process's stores may hold together: 32,768
# rows of about 1 KB at the default clamp.  A long sweep over real
# images meets about 10**5 keys per channel, so the stores are dropped
# rather than grown without end.
STORE_CAP_BYTES = 32 * 2**20

_stores = {}  # (prior fingerprint, clamp) -> TableStore
_stores_lock = threading.Lock()


def table_store(prior: PriorModel, clamp: int) -> TableStore:
    """The process's store of prior's tables at clamp, made on first use.

    Once the stores hold STORE_CAP_BYTES of rows, every one is dropped
    and this one made again.  Streams that hold a dropped store keep it.
    """
    with _stores_lock:
        if sum(store.nbytes for store in _stores.values()) >= STORE_CAP_BYTES:
            _stores.clear()
        key = (prior.fingerprint, clamp)
        if key not in _stores:
            _stores[key] = TableStore(prior, clamp)
        return _stores[key]


# A CRC-valid header sets what the receiver allocates before reading any
# payload (a plan over the grid and a grid x channels int16 array), so
# the grid is bounded: 2**16 positions is a 4096x4096 image.
MAX_GRID_POSITIONS = 2**16


# Layouts the process keeps.  A layout of MAX_GRID_POSITIONS positions
# holds 5.5 MiB (tracemalloc), so the cache holds at most about 88 MiB;
# a 512x512 image's holds 0.35 MiB.
@lru_cache(maxsize=16)
def stream_layout(grid_h: int, grid_w: int, mode_id: int, l: int,
                  mode_param: int, plan_seed: int, beta_milli: int):
    """(mode, plan, depths, groups) of a stream over a grid_h x grid_w
    token grid, from the header fields that set them.

    `depths` is each slice's `context_depths` and `groups[d]` the slices
    of depth d, as `iteration_schedule` groups them; both are tuples,
    and the plan's `owner` is made here.  The process keeps the layouts
    it built last, so a receive finds the one its send built.  A miss
    calls `make_mode`, `build_plan` and `context_depths` by this
    module's names, so wrappers around them see every layout built.
    ValueError, raised again on every call, if the fields make no mode
    or no plan.
    """
    key = MODE_PARAM.get(mode_id)
    mode = make_mode(mode_id, l, {key: mode_param} if key else {})
    plan = build_plan(grid_h, grid_w, mode.l, mode, plan_seed,
                      beta_milli / 1000)
    plan.owner  # made once, for every stream of the layout
    depths = tuple(context_depths(mode))
    groups = [[] for _ in range(max(depths) + 1)]
    for i, depth in enumerate(depths, start=1):
        groups[depth].append(i)
    return mode, plan, depths, tuple(map(tuple, groups))


def stream_header(cfg: PipelineConfig, height: int, width: int,
                  planes: int = 1) -> PacketHeader:
    """Slice 0's header of cfg's stream for a height x width image.

    It builds no mode; `Stream` checks that the header makes one.
    The plan seed is taken modulo 2**64.  ValueError for an unknown mode
    kind or a value that does not fit its field.
    """
    mode_id = preset_id(cfg.mode_kind)
    key = MODE_PARAM.get(mode_id)
    beta = DEFAULT_BETA[mode_id] if cfg.beta is None else cfg.beta
    if not 0 <= beta <= 65.535:
        raise ValueError(f"beta {beta} is outside 0..65.535")
    return PacketHeader(
        image_id=cfg.image_id, slice_index=0, total_slices=cfg.l,
        mode_id=mode_id, mode_param=cfg.mode_params.get(key, 0) if key else 0,
        plan_seed=cfg.plan_seed & (2**64 - 1),
        beta_milli=round(beta * 1000),
        channels=cfg.codec.channels, quality=cfg.codec.quality,
        clamp=cfg.codec.clamp, height=height, width=width, planes=planes,
        prior_fingerprint=cfg.get_prior().fingerprint,
    )


class Stream:
    """The stream that a packet header describes, and its context model.

    Its mode, slice plan over the token grid (BLOCK x BLOCK blocks
    covering the output size), context depths and their groups come from
    the header alone, through the process's `stream_layout`, and so does
    its codec; the prior defaults to the header codec's uninformed one,
    which `default_prior` also builds once per process.  Its tables come
    from the process's store of its prior and clamp (`table_store`),
    taken when it opens.  ValueError if the grid has
    more than MAX_GRID_POSITIONS positions or `planes` is outside
    1..channels, before anything is built for it; if the header's mode
    is not valid; and if the prior's fingerprint is not the header's.
    """

    def __init__(self, header: PacketHeader, prior: PriorModel | None = None):
        grid_h, grid_w = -(-header.height // BLOCK), -(-header.width // BLOCK)
        if grid_h * grid_w > MAX_GRID_POSITIONS:
            raise ValueError(
                f"a {header.height}x{header.width} image needs "
                f"{grid_h * grid_w} token positions, more than the "
                f"{MAX_GRID_POSITIONS} a stream may have")
        if not 1 <= header.planes <= header.channels:
            raise ValueError(f"planes {header.planes} is outside "
                             f"1..{header.channels}: each plane needs a "
                             "channel")
        mode_param = header.mode_param if header.mode_id in MODE_PARAM else 0
        self.mode, self.plan, self.depths, self.groups = stream_layout(
            grid_h, grid_w, header.mode_id, header.total_slices, mode_param,
            header.plan_seed, header.beta_milli)
        self.codec = CodecConfig(header.channels, header.quality,
                                 header.clamp)
        if prior is None:
            prior = default_prior(header.channels, header.clamp)
        if prior.fingerprint != header.prior_fingerprint:
            raise ValueError("the model is not the prior the stream was "
                             "coded with")
        self.header = header
        self.prior = prior
        self.l = header.total_slices
        self.store = table_store(prior, header.clamp)

    def model(self, slices, grid: TokenGrid):
        """(positions, rows, cum): the positions of `slices`, slice by
        slice, and the row of `cum` that holds each of their symbols'
        table, position-major then channel.

        One predictor pass and one table lookup serve every slice given.
        Each position reads only its own slice's context slices of
        `grid`, so its table is the one that slice alone would get; the
        caller makes sure those context slices are known there.
        """
        ctx = collect_context(slices, self.mode, self.plan, grid)
        output = predict(ctx, self.prior)
        cum, rows = self.store.tables(output)
        return output.positions, rows, cum


def send(image: np.ndarray, cfg: PipelineConfig):
    """Encode an image into one packet per slice, with the tables of the
    process's store of cfg's prior (see `Stream`).

    Returns (packets, grid, plan, mode).
    """
    planes = 1 if image.ndim == 2 else image.shape[2]
    header = stream_header(cfg, image.shape[0], image.shape[1], planes)
    stream = Stream(header, cfg.prior)
    grid = analyze(image, stream.codec)
    # The sender holds every slice, so one pass models them all.
    slices = range(1, stream.l + 1)
    positions, rows, cum = stream.model(slices, grid)
    symbols = (grid.values[tuple(positions.T)].astype(np.int64)
               + header.clamp).reshape(-1)
    # Every slice's coding steps in one go; a packet codes its cut.
    steps = entropy_coder.block_steps(symbols, rows, cum, stream.store.peaks,
                                      grid.channels)
    # Slice i's positions are those between its plan boundaries.
    bounds = stream.plan.boundaries
    packets = []
    for i, lo, hi in zip(slices, bounds, bounds[1:]):
        at = slice(lo * grid.channels, hi * grid.channels)
        payload = entropy_coder.encode(symbols[at], rows[at], cum,
                                       steps[lo:hi])
        packets.append(Packet(header=replace(header, slice_index=i - 1),
                              payload=payload))
    return packets, grid, stream.plan, stream.mode


SLICE_DECODED = "decoded"
SLICE_LOST = "lost"
SLICE_ORPHANED = "orphaned"
SLICE_CORRUPT = "corrupt"
SLICE_REJECTED = "rejected"  # only packets of another stream arrived


@dataclass(frozen=True)
class SliceStatus:
    """What happened to one slice at the receiver."""

    state: str  # one of the SLICE_* constants
    # SLICE_ORPHANED only: the first context slice that was not decoded,
    # because its packet is missing or it could not be decoded itself.
    missing_context: int | None = None

    def __str__(self):
        if self.state == SLICE_ORPHANED:
            return f"{self.state} by {self.missing_context}"
        return self.state


@dataclass
class ReceiveResult:
    image: np.ndarray
    outcome: str
    grid: TokenGrid  # concealed (all known) token grid
    decoded_slices: list  # 1-based indices that entropy-decoded
    # Distinct context depths of slices predicted from a non-empty
    # context, plus one for concealment around any decoded token.
    predictor_passes: int
    slice_status: list  # one SliceStatus per slice, in slice order


class Receiver(Stream):
    """Decoding session for the stream one packet header describes.

    Slices decode as soon as their packet and all their context slices
    are in, every ready slice of a context depth in one model pass;
    `result` conceals the rest on a copy, so packets may keep arriving.
    The header and prior are checked as `Stream` checks them.
    Each slice has one state, a SLICE_* value: lost or rejected until a
    packet of the stream reaches it, orphaned while that packet is held
    and a context slice is not decoded, then decoded or corrupt.

    Only wire bytes are checked, by `transport.packet_from_bytes`'s CRC.
    The `Packet` objects handed to a session are trusted: a payload moved
    into another slice's packet can decode as `lossless` with wrong
    tokens.
    """

    def __init__(self, header: PacketHeader, prior: PriorModel | None = None):
        super().__init__(header, prior)
        shape = self.plan.owner.shape
        self.grid = TokenGrid(
            values=np.zeros((*shape, header.channels), np.int16),
            known=np.zeros(shape, bool),
        )
        self.packets = {}  # 1-based slice index -> the packet it holds
        self.state = [SLICE_LOST] * self.l  # slice i's is state[i - 1]
        # (decoded slices, concealed grid, image) of the last result.
        self._last = None
        self._sums = None  # the RunningSums, from the first concealment

    def _missing_context(self, i: int) -> int | None:
        """Slice i's first context slice that is not decoded, if any; a
        held slice decodes once there is none and is orphaned until then."""
        return next((j for j in self.mode.contexts_of(i)
                     if self.state[j - 1] != SLICE_DECODED), None)

    def add(self, *packets: Packet):
        """Hold packets and decode every slice that became decodable.

        This is the one rule for which packet a slice holds: the first
        packet of the session's stream.  A later packet for a held slice
        is ignored.  A packet of another stream is never held; its slice
        is rejected until one of the session's own arrives.  Packets are
        trusted as given (only wire bytes are checked, by
        `packet_from_bytes`'s CRC): a payload moved into another slice's
        packet can decode as `lossless` with wrong tokens.
        """
        new = []
        for packet in packets:
            index = packet.header.slice_index + 1
            if index > self.l or index in self.packets:
                continue
            if packet.header != self.header:
                self.state[index - 1] = SLICE_REJECTED
                continue
            self.packets[index] = packet
            self.state[index - 1] = SLICE_ORPHANED
            new.append(index)
        if not new:
            return
        # A slice's contexts lie at lower depths, so one walk up the
        # depths, from the lowest depth of a new slice, decodes all that
        # the packets unblock, each depth's ready slices in one pass.
        for group in self.groups[min(self.depths[i - 1] for i in new):]:
            ready = [i for i in group if self.state[i - 1] == SLICE_ORPHANED
                     and self._missing_context(i) is None]
            if ready:
                self._decode(ready)

    def _decode(self, slices):
        """Model `slices` in one pass and decode each from its packet.

        The slices share a context depth, so none reads another: each
        gets the tables it would get alone, and a corrupt one costs the
        others nothing.
        """
        positions, rows, cum = self.model(slices, self.grid)
        channels = self.header.channels
        blocks = entropy_coder.blocks(rows, cum, self.store.peaks, channels)
        bounds = self.plan.boundaries
        lo = 0
        for i in slices:
            hi = lo + bounds[i] - bounds[i - 1]
            try:
                symbols = entropy_coder.decode(
                    self.packets[i].payload, rows[lo * channels:hi * channels],
                    cum, blocks=blocks[lo:hi])
            except entropy_coder.CorruptStreamError:
                self.state[i - 1] = SLICE_CORRUPT
            else:
                values = np.array(symbols, dtype=np.int64) - self.header.clamp
                at = tuple(positions[lo:hi].T)
                self.grid.values[at] = values.reshape(hi - lo, channels)
                self.grid.known[at] = True
                self.state[i - 1] = SLICE_DECODED
            lo = hi

    def result(self) -> ReceiveResult:
        """Conceal what is still masked and synthesize the image.

        The concealed grid and the image depend on the decoded slices
        alone, so they are computed again only once another slice has
        decoded; until then each result shares the last one's arrays.
        The session's first concealment makes its concealment sums, and
        each later one adds the terms of the tokens decoded since.
        """
        # Predictions at one context depth count as one pass of the
        # iterative schedule; slices predicted from no context at all
        # (depth 0) count for none.  Decoded and corrupt slices were
        # predicted.
        passes = len({d for d, state in zip(self.depths, self.state)
                      if state in (SLICE_DECODED, SLICE_CORRUPT)} - {0})
        decoded = [i for i, state in enumerate(self.state, start=1)
                   if state == SLICE_DECODED]
        if len(decoded) == self.l:
            outcome = OUTCOME_LOSSLESS
        else:
            outcome = OUTCOME_CONCEALED if decoded else OUTCOME_FAILED
            if self.grid.known.any():
                passes += 1
        if self._last is None or self._last[0] != decoded:
            if outcome == OUTCOME_LOSSLESS:
                full = self.grid.copy()
            else:
                if self._sums is None:
                    self._sums = RunningSums(self.grid, self.prior)
                full = conceal(self.grid, self._sums.predict(self.grid))
            h = self.header
            self._last = (decoded, full, synthesize(
                full, self.codec, h.height, h.width, h.planes))
        _, full, image = self._last
        return ReceiveResult(
            image=image,
            outcome=outcome,
            grid=full,
            decoded_slices=decoded,
            predictor_passes=passes,
            slice_status=[
                SliceStatus(state, self._missing_context(i)
                            if state == SLICE_ORPHANED else None)
                for i, state in enumerate(self.state, start=1)],
        )


def receive(packets, flags, cfg: PipelineConfig, out_height: int,
            out_width: int, planes: int = 1,
            receiver: Receiver | None = None) -> ReceiveResult:
    """Decode received packets; conceal what cannot be entropy-decoded.

    flags[i] says whether slice i + 1's packets count as received;
    ValueError unless there is one flag per slice.  Packets may be None
    (lost).  Every packet whose slice's flag is set goes to the session
    in list order, and `Receiver.add` decides which one a slice holds:
    the first of the stream that `stream_header` gives for cfg and the
    output size.  Without a `receiver` session, ValueError if no packet
    of that stream is given; the session it opens shares the process's
    tables with the stream's `send`.  With a `receiver` session for that
    stream, flags that drop a slice it holds raise ValueError.  Only
    wire bytes are checked, by `packet_from_bytes`'s CRC; the `Packet`
    objects given here are trusted, so a payload moved into another
    slice's packet can decode as `lossless` with wrong tokens.
    """
    given = [p for p in packets if p is not None]
    if receiver is None:
        receiver = Receiver(stream_header(cfg, out_height, out_width, planes),
                            cfg.prior)
        if not any(p.header == receiver.header for p in given):
            raise ValueError("no packet matches the config and output size")
    if len(flags) != receiver.l:
        raise ValueError(f"{len(flags)} flags for a stream of {receiver.l} "
                         "slices")
    kept = [p for p in given if p.header.slice_index < receiver.l
            and flags[p.header.slice_index]]
    dropped = receiver.packets.keys() - {p.header.slice_index + 1
                                         for p in kept}
    if dropped:
        raise ValueError(f"flags drop slices {sorted(dropped)} that the "
                         "receiver already holds")
    receiver.add(*kept)
    return receiver.result()


def evaluate(original: np.ndarray, result_image: np.ndarray, outcome: str,
             packets):
    """(psnr_db, bpp_payload, bpp_total) under the failure convention.

    Lost packets may be given as None; bits count only for the others.
    """
    if outcome == OUTCOME_FAILED:
        psnr = FAILED_PSNR_DB
    else:
        psnr = psnr_db(original, result_image)
    n_pixels = original.shape[0] * original.shape[1]
    present = [p for p in packets if p is not None]
    bits_payload = sum(p.payload.bit_length for p in present)
    bits_total = sum(p.wire_bits for p in present)
    return psnr, bits_payload / n_pixels, bits_total / n_pixels


def progressive_receive(packets, cfg: PipelineConfig, out_height: int,
                        out_width: int, planes: int = 1):
    """Decode every prefix of the packet list, in list order; one result
    per prefix.

    The list may hold the slices in any order, lost packets as None,
    copies (a slice keeps the first it gets) and any number of packets.
    One receiver session runs across the prefixes, so each slice is
    entropy-decoded once.  ValueError if no packet of cfg's stream is
    given.
    """
    session = Receiver(stream_header(cfg, out_height, out_width, planes),
                       cfg.prior)
    if not any(p is not None and p.header == session.header
               for p in packets):
        raise ValueError("no packet matches the config and output size")
    every = [True] * session.l
    return [receive(packets[:k], every, cfg, out_height, out_width, planes,
                    receiver=session)
            for k in range(1, len(packets) + 1)]
