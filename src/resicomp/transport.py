"""Packets, Markov packet-loss models, and the ideal-FEC baseline.

A packet header describes the whole stream (mode, slice plan, codec,
output size and a prior fingerprint) and refuses values its fields
cannot hold.

Loss models are two-state (good/bad) Markov chains; a packet sent in
the bad state, `LOSS_STATE`, is lost.  The named presets EP1..EP6 are
calibrated chains that reproduce each pattern's stationary loss
probability and mean burst length exactly; the published four-parameter
three-state records are kept as metadata.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .entropy_coder import Bitstring

PACKET_MAGIC = b"RCPK"
PACKET_VERSION = 5
# Header fields and their struct codes in wire order, after the magic
# and the version byte; the payload length and a crc32 over header and
# payload follow.  Little-endian, no padding.
_WIRE = {name: struct.Struct("<" + code) for name, code in (
    ("image_id", "Q"), ("slice_index", "B"), ("total_slices", "B"),
    ("mode_id", "B"), ("mode_param", "B"), ("plan_seed", "Q"),
    ("beta_milli", "H"), ("channels", "B"), ("quality", "d"),
    ("clamp", "h"), ("height", "H"), ("width", "H"), ("planes", "B"),
    ("prior_fingerprint", "8s"))}
_HEADER_FMT = "<4sB" + "".join(f.format[1:] for f in _WIRE.values()) + "I"
HEADER_SIZE = struct.calcsize(_HEADER_FMT) + 4  # + trailing crc32


class PacketFormatError(Exception):
    """Malformed packet bytes."""


@dataclass(frozen=True)
class PacketHeader:
    """What a packet says about its stream.  Equal headers (every field
    but `slice_index`) mean the same config, prior and image size, not
    the same image: two images coded with one config get equal headers
    (ROADMAP item 10)."""

    image_id: int
    slice_index: int = field(compare=False)  # 0-based on the wire
    total_slices: int  # L
    mode_id: int
    mode_param: int  # n_d for MDC, E for SLC, else 0
    plan_seed: int
    beta_milli: int  # slice-size exponent beta in thousandths
    channels: int
    quality: float
    clamp: int
    height: int  # output image size; the token grid follows from it
    width: int
    planes: int
    prior_fingerprint: bytes  # PriorModel.fingerprint

    def __post_init__(self):
        for name, wire in _WIRE.items():
            value = getattr(self, name)
            try:
                wire.pack(value)
            except struct.error:
                raise ValueError(f"{name} {value!r} does not fit the "
                                 "packet header") from None

    def for_slice(self, index: int) -> PacketHeader:
        """This header with `slice_index` set to `index`, 0-based.

        Every other field is this header's, checked when it was made, so
        only the index is checked: it must be below `total_slices`.  The
        copy skips `__init__` and `__post_init__`, so every field must be
        a plain stored value that `__post_init__` only checks: a field it
        derived or normalized would be copied unchecked.
        """
        if not 0 <= index < self.total_slices:
            raise ValueError(f"slice index {index} is outside "
                             f"0..{self.total_slices - 1}")
        header = object.__new__(PacketHeader)
        header.__dict__.update(self.__dict__, slice_index=index)
        return header


@dataclass(frozen=True)
class Packet:
    header: PacketHeader
    payload: Bitstring

    def to_bytes(self) -> bytes:
        head = struct.pack(
            _HEADER_FMT, PACKET_MAGIC, PACKET_VERSION,
            *(getattr(self.header, name) for name in _WIRE),
            len(self.payload.data),
        )
        crc = zlib.crc32(head + self.payload.data) & 0xFFFFFFFF
        return head + struct.pack("<I", crc) + self.payload.data

    @property
    def wire_bits(self):
        return 8 * (HEADER_SIZE + len(self.payload.data))


def packet_from_bytes(data: bytes) -> Packet:
    head_len = HEADER_SIZE - 4
    if len(data) < HEADER_SIZE:
        raise PacketFormatError("packet shorter than header")
    magic, version, *values, payload_len = struct.unpack(_HEADER_FMT,
                                                         data[:head_len])
    if magic != PACKET_MAGIC:
        raise PacketFormatError(f"bad magic {magic!r}")
    if version != PACKET_VERSION:
        raise PacketFormatError(f"unsupported version {version}")
    header = PacketHeader(**dict(zip(_WIRE, values)))
    if header.slice_index >= header.total_slices:
        raise PacketFormatError("slice index out of range")
    (crc,) = struct.unpack("<I", data[head_len:HEADER_SIZE])
    payload = data[HEADER_SIZE:]
    if len(payload) < payload_len:
        raise PacketFormatError("truncated payload")
    if len(payload) > payload_len:
        raise PacketFormatError("bytes after the payload")
    if zlib.crc32(data[:head_len] + payload) & 0xFFFFFFFF != crc:
        raise PacketFormatError("CRC mismatch")
    return Packet(header=header, payload=Bitstring(bytes(payload)))


# Published three-state records: (p_G, p_B, p_I, p_B_to_G, eps, gamma).
# The bad-state self-loop p_B anchors the burst-length semantics; eps is
# the stationary loss probability target used for calibration.
PRESET_TABLE = {
    "EP1": (0.99968, 0.8462, 0.0000, 0.1538, 0.002, 6.50),
    "EP2": (0.9798, 0.3720, 0.3333, 0.6304, 0.031, 1.59),
    "EP3": (0.9500, 0.8000, 0.6000, 0.8000, 0.065, 5.00),
    "EP4": (0.9363, 0.4072, 0.5662, 0.3631, 0.136, 1.69),
    "EP5": (0.9000, 0.9000, 0.1000, 0.1000, 0.214, 10.0),
    "EP6": (0.8507, 0.6305, 0.2000, 0.2982, 0.323, 2.71),
}


# The chain's state in which a packet is lost; state 0 delivers it.
LOSS_STATE = 1


@dataclass(frozen=True)
class LossModel:
    """The two-state chain `preset` builds, with its preset record."""

    transition: np.ndarray  # (2, 2) row-stochastic
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.array(self.transition, dtype=np.float64)
        if t.shape != (2, 2):
            raise ValueError("transition matrix must be 2 x 2")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must sum to 1")
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)


@dataclass(frozen=True)
class LossTrace:
    flags: np.ndarray  # bool per packet, True = received

    def __post_init__(self):
        object.__setattr__(self, "flags",
                           np.asarray(self.flags, dtype=bool))

    def __len__(self):
        return len(self.flags)


def preset(name: str) -> LossModel:
    """Calibrated two-state chain for a named loss pattern."""
    if name not in PRESET_TABLE:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESET_TABLE)}")
    p_g, p_b, p_i, p_bg, eps, gamma_printed = PRESET_TABLE[name]
    gamma = 1.0 / (1.0 - p_b)
    good_to_bad = eps / (gamma * (1.0 - eps))
    transition = np.array([
        [1.0 - good_to_bad, good_to_bad],
        [1.0 - p_b, p_b],
    ])
    return LossModel(
        transition=transition,
        meta={
            "preset": name,
            "p_G": p_g, "p_B": p_b, "p_I": p_i, "p_B_to_G": p_bg,
            "eps": eps, "gamma": gamma_printed,
        },
    )


def stationary_distribution(model: LossModel) -> np.ndarray:
    """The law pi with pi T = pi and sum(pi) = 1, solved directly.

    The balance equations sum to zero, so the last one is replaced by
    the normalization.  Least squares takes the minimum-norm law when a
    chain with several closed classes has more than one.
    """
    a = model.transition.T - np.eye(2)
    a[-1] = 1.0
    b = np.zeros(2)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def stationary(model: LossModel):
    """(eps, gamma): stationary loss probability and mean burst length."""
    eps = float(stationary_distribution(model)[LOSS_STATE])
    self_loop = float(model.transition[LOSS_STATE, LOSS_STATE])
    gamma = 1.0 / (1.0 - self_loop) if self_loop < 1.0 else float("inf")
    return eps, gamma


def sample_trace(model: LossModel, n_packets: int, rng_seed: int) -> LossTrace:
    """Loss trace of n packets, chain started from its stationary law."""
    if n_packets < 1:
        raise ValueError("need at least one packet")
    rng = np.random.default_rng(rng_seed)
    uniforms = rng.random(n_packets).tolist()
    # From state s the chain moves to state 1 when u >= P(s -> 0).
    stay = model.transition[:, 0].tolist()
    state = int(uniforms[0] >= stationary_distribution(model)[0])
    lost = np.empty(n_packets, dtype=bool)
    lost[0] = state == LOSS_STATE
    for i in range(1, n_packets):
        state = int(uniforms[i] >= stay[state])
        lost[i] = state == LOSS_STATE
    return LossTrace(flags=~lost)


def trace_stats(trace: LossTrace):
    """Empirical (eps, mean loss-burst length) of a trace."""
    lost = ~trace.flags
    eps = float(lost.mean())
    if not lost.any():
        return eps, 0.0
    padded = np.concatenate(([False], lost, [False])).astype(np.int8)
    d = np.diff(padded)
    starts = np.count_nonzero(d == 1)
    gamma = float(lost.sum() / starts)
    return eps, gamma


def fec_channel(n_data: int, n_parity: int, trace: LossTrace) -> bool:
    """Ideal erasure code: decodable iff >= n_data of n_data+n_parity arrive."""
    if len(trace) != n_data + n_parity:
        raise ValueError("trace length must be n_data + n_parity")
    return int(trace.flags.sum()) >= n_data


def write_traces(path, traces):
    """One 0/1 character per packet (1 = received), one line per episode."""
    with open(path, "w") as f:
        for trace in traces:
            f.write("".join("1" if ok else "0" for ok in trace.flags))
            f.write("\n")


def read_traces(path):
    traces = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if set(line) - {"0", "1"}:
                raise ValueError("trace lines must be 0/1 strings")
            traces.append(LossTrace(np.array([ch == "1" for ch in line])))
    return traces
