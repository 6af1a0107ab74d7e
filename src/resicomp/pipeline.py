"""End-to-end sender, receiver and progressive decoding.

A packet header describes its whole stream: `stream_header` maps a
config and an image size to it, and `open_stream` maps it back to the
mode, slice plan and codec.  `send` opens the header it writes, a
`Receiver` the header it is given; neither builds a mode elsewhere.
The sender tokenizes, partitions, and entropy-codes each slice under
the context mode's dependency matrix, packetizing one slice per packet.
The receiver is a session (`Receiver`) built from one header: packets
are added one at a time, in any order, and each slice is entropy-decoded
once, as soon as its packet and its full context closure are in.  Its
result conceals all still-masked tokens in a single predictor pass,
synthesizes the image and says per slice whether it was decoded, lost,
orphaned by a context slice, corrupt, or rejected as another stream's.
`receive` runs a session over one set of packets; `progressive_receive`
keeps one across every prefix.  Both sides run the context model once
per slice and only at that slice's positions, so its window sums cost
work in proportion to the slice, not the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import entropy_coder
from .context_modes import (DEFAULT_BETA, MODE_PARAM, context_depths,
                            make_mode, preset_id)
from .density import (FreqTable, discretize_batch, key_mixtures, mixture_keys,
                      quantize_probs)
from .image_io import psnr_db
from .partition import build_plan
from .predictor import (PriorModel, SynchronizationError, collect_context,
                        conceal, default_prior, predict)
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


class TableStore:
    """One stream's frequency tables: rows of one int32 array of
    cumulative counts, and the row of each key, each built once.

    A table is a function of its key, the stream's prior and the clamp:
    the store builds a key's table from `key_mixtures(key, prior)` alone,
    so it may meet the keys in any order.  The array grows by doubling
    and a row keeps its number.  The build calls `discretize_batch`,
    `quantize_probs` and `FreqTable.batch` by this module's names, so
    wrappers around them see every table built.
    """

    def __init__(self, prior: PriorModel, clamp: int):
        self.prior = prior
        self.clamp = clamp
        self._rows = {}  # key -> row number
        self._cum = np.empty((0, 2 * clamp + 2), np.int32)

    def __len__(self):
        return len(self._rows)

    def tables(self, output):
        """(cum, rows): the tables held, and the row of each symbol of
        `output` in `mixture_keys` order.

        The keys not held yet are built in one batch.
        """
        keys, inverse = np.unique(mixture_keys(output), return_inverse=True)
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
            self._cum[start:end] = FreqTable.batch(quantize_probs(
                discretize_batch(*key_mixtures(fresh, self.prior),
                                 self.clamp)))
            rows[new] = np.arange(start, end)
            held.update(zip(fresh.tolist(), range(start, end)))
        return self._cum[:len(held)], rows[inverse]


# A CRC-valid header sets what the receiver allocates before reading any
# payload (a plan over the grid and a grid x channels int16 array), so
# the grid is bounded: 2**16 positions is a 4096x4096 image.
MAX_GRID_POSITIONS = 2**16


def stream_header(cfg: PipelineConfig, height: int, width: int,
                  planes: int = 1) -> PacketHeader:
    """Slice 0's header of cfg's stream for a height x width image.

    It builds no mode; `open_stream` checks that the header makes one.
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


def open_stream(header: PacketHeader):
    """(mode, plan, codec) of the stream that a packet header describes.

    The token grid covers the output size in BLOCK x BLOCK blocks.
    ValueError if the grid has more than MAX_GRID_POSITIONS positions or
    `planes` is outside 1..channels, before anything is built for it,
    and if the header's mode is not valid.
    """
    grid_h, grid_w = -(-header.height // BLOCK), -(-header.width // BLOCK)
    if grid_h * grid_w > MAX_GRID_POSITIONS:
        raise ValueError(
            f"a {header.height}x{header.width} image needs {grid_h * grid_w} "
            f"token positions, more than the {MAX_GRID_POSITIONS} a stream "
            "may have")
    if not 1 <= header.planes <= header.channels:
        raise ValueError(f"planes {header.planes} is outside "
                         f"1..{header.channels}: each plane needs a channel")
    key = MODE_PARAM.get(header.mode_id)
    mode = make_mode(header.mode_id, header.total_slices,
                     {key: header.mode_param} if key else {})
    plan = build_plan(grid_h, grid_w, mode.l, mode, header.plan_seed,
                      header.beta_milli / 1000)
    return mode, plan, CodecConfig(header.channels, header.quality,
                                   header.clamp)


def send(image: np.ndarray, cfg: PipelineConfig):
    """Encode an image into one packet per slice.

    Returns (packets, grid, plan, mode).
    """
    planes = 1 if image.ndim == 2 else image.shape[2]
    header = stream_header(cfg, image.shape[0], image.shape[1], planes)
    mode, plan, codec = open_stream(header)
    prior = cfg.get_prior()
    grid = analyze(image, codec)
    store = TableStore(prior, codec.clamp)
    all_received = [1] * mode.l
    packets = []
    for i in range(1, mode.l + 1):
        ctx = collect_context(i, mode, all_received, plan, grid)
        output = predict(ctx, prior, plan.slice_positions(i))
        cum, table_rows = store.tables(output)
        rows, cols = output.positions.T
        symbols = (grid.values[rows, cols].astype(np.int64)
                   + codec.clamp).reshape(-1)
        payload = entropy_coder.encode(symbols, table_rows, cum)
        packets.append(Packet(header=replace(header, slice_index=i - 1),
                              payload=payload))
    return packets, grid, plan, mode


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


class Receiver:
    """Decoding session for the stream one packet header describes.

    Slices decode as soon as their packet and all their context slices
    are in; `result` conceals the rest on a copy, so packets may keep
    arriving.  The prior defaults to the uninformed one of the header's
    codec; ValueError if its fingerprint is not the header's.  Each
    distinct table is built once, whichever slice first needs it.

    Only wire bytes are checked, by `transport.packet_from_bytes`'s CRC.
    The `Packet` objects handed to a session are trusted: a payload moved
    into another slice's packet can decode as `lossless` with wrong
    tokens.
    """

    def __init__(self, header: PacketHeader, prior: PriorModel | None = None):
        self.header = header
        self.mode, self.plan, self.codec = open_stream(header)
        if prior is None:
            prior = default_prior(self.codec.channels, self.codec.clamp)
        if prior.fingerprint != header.prior_fingerprint:
            raise ValueError("the model is not the prior the stream was "
                             "coded with")
        self.prior = prior
        self.l = header.total_slices
        self.depths = context_depths(self.mode)
        shape = self.plan.owner.shape
        self.grid = TokenGrid(
            values=np.zeros((*shape, header.channels), np.int16),
            known=np.zeros(shape, bool),
        )
        self.tables = TableStore(prior, self.codec.clamp)
        self.packets = {}  # 1-based slice index -> the packet it holds
        self.decoded = [False] * self.l
        self.corrupt = set()  # 1-based indices whose payload did not decode
        self.rejected = set()  # 1-based indices of other streams' packets

    def add(self, *packets: Packet):
        """Hold packets and decode every slice that became decodable.

        A packet for a slice the session already holds is ignored, and
        so is one of another stream, whose slice is marked rejected.
        Packets are trusted as given (only wire bytes are checked, by
        `packet_from_bytes`'s CRC): a payload moved into another slice's
        packet can decode as `lossless` with wrong tokens.
        """
        new = []
        for packet in packets:
            index = packet.header.slice_index + 1
            if index > self.l or index in self.packets:
                continue
            if packet.header != self.header:
                self.rejected.add(index)
                continue
            self.packets[index] = packet
            new.append(index)
        if not new:
            return
        clamp = self.codec.clamp
        # Contexts precede their slice, so one ascending sweep from the
        # lowest new slice decodes everything the packets unblock.
        for i in range(min(new), self.l + 1):
            if (i not in self.packets or self.decoded[i - 1]
                    or i in self.corrupt):
                continue
            try:
                ctx = collect_context(i, self.mode, self.decoded, self.plan,
                                      self.grid)
            except SynchronizationError:
                continue
            output = predict(ctx, self.prior, self.plan.slice_positions(i))
            cum, table_rows = self.tables.tables(output)
            try:
                symbols = entropy_coder.decode(self.packets[i].payload,
                                               table_rows, cum)
            except entropy_coder.CorruptStreamError:
                self.corrupt.add(i)
                continue
            values = np.array(symbols, dtype=np.int64) - clamp
            rows, cols = output.positions.T
            self.grid.values[rows, cols] = values.reshape(len(rows), -1)
            self.grid.known[rows, cols] = True
            self.decoded[i - 1] = True

    def _slice_status(self) -> list:
        status = []
        for i in range(1, self.l + 1):
            if self.decoded[i - 1]:
                status.append(SliceStatus(SLICE_DECODED))
            elif i in self.corrupt:
                status.append(SliceStatus(SLICE_CORRUPT))
            elif i in self.packets:
                j = next(j for j in self.mode.contexts_of(i)
                         if not self.decoded[j - 1])
                status.append(SliceStatus(SLICE_ORPHANED, j))
            elif i in self.rejected:
                status.append(SliceStatus(SLICE_REJECTED))
            else:
                status.append(SliceStatus(SLICE_LOST))
        return status

    def result(self) -> ReceiveResult:
        """Conceal what is still masked and synthesize the image."""
        # Predictions at one context depth count as one pass of the
        # iterative schedule; slices predicted from no context at all
        # (depth 0) count for none.  Decoded and corrupt slices were
        # predicted.
        passes = len({self.depths[i - 1] for i in range(1, self.l + 1)
                      if self.decoded[i - 1] or i in self.corrupt} - {0})
        n_decoded = sum(self.decoded)
        if n_decoded == self.l:
            outcome = OUTCOME_LOSSLESS
            full = self.grid.copy()
        else:
            outcome = OUTCOME_FAILED if n_decoded == 0 else OUTCOME_CONCEALED
            output = predict(self.grid, self.prior)
            if self.grid.known.any():
                passes += 1
            full = conceal(self.grid, output)
        h = self.header
        image = synthesize(full, self.codec, h.height, h.width, h.planes)
        return ReceiveResult(
            image=image,
            outcome=outcome,
            grid=full,
            decoded_slices=[i + 1 for i, d in enumerate(self.decoded) if d],
            predictor_passes=passes,
            slice_status=self._slice_status(),
        )


def receive(packets, flags, cfg: PipelineConfig, out_height: int,
            out_width: int, planes: int = 1,
            receiver: Receiver | None = None) -> ReceiveResult:
    """Decode received packets; conceal what cannot be entropy-decoded.

    flags[i] says whether slice i + 1's packet counts as received;
    ValueError unless there is one flag per slice.  Of several packets
    for one slice the last one counts.  Packets of another stream than
    `stream_header` gives for cfg and the output size are rejected;
    ValueError if no packet matches.  With a `receiver` session for that
    stream, only the packets it does not hold yet are added; flags that
    drop one it holds raise ValueError.  Only wire bytes are checked, by
    `packet_from_bytes`'s CRC; the `Packet` objects given here are
    trusted, so a payload moved into another slice's packet can decode as
    `lossless` with wrong tokens.
    """
    if receiver is None:
        receiver = Receiver(stream_header(cfg, out_height, out_width, planes),
                            cfg.prior)
    by_slice = {p.header.slice_index + 1: p for p in packets if p is not None}
    if not any(p.header == receiver.header for p in by_slice.values()):
        raise ValueError("no packet matches the config and output size")
    if len(flags) != receiver.l:
        raise ValueError(f"{len(flags)} flags for a stream of {receiver.l} "
                         "slices")
    arrived = [i for i in range(1, receiver.l + 1)
               if flags[i - 1] and i in by_slice]
    dropped = receiver.packets.keys() - set(arrived)
    if dropped:
        raise ValueError(f"flags drop slices {sorted(dropped)} that the "
                         "receiver already holds")
    receiver.add(*(by_slice[i] for i in arrived))
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
    """Decode every prefix of the packet sequence; one result per step.

    One receiver session runs across the prefixes, so each slice is
    entropy-decoded once.
    """
    session = Receiver(stream_header(cfg, out_height, out_width, planes),
                       cfg.prior)
    results = []
    for k in range(1, len(packets) + 1):
        flags = [i < k for i in range(len(packets))]
        results.append(receive(packets, flags, cfg, out_height, out_width,
                               planes, receiver=session))
    return results
