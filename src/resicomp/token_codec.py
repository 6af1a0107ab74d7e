"""Deterministic toy analysis/synthesis transform over 16x16 blocks.

Each 16x16 pixel block is mapped through an orthonormal 2-D cosine
basis; the first C coefficients in zigzag order are kept, divided by a
per-coefficient step, rounded, and clamped to a fixed signed alphabet.
This stands in for a learned transform pair: the 16x downsampling and
the spatial correlation of neighboring tokens are what the rest of the
toolkit relies on, not the transform's compression quality.

Synthesis is one product per call: each token channel's dequantized
basis block is a row of a matrix built on first use per codec and
plane count, so a position's C tokens times that matrix are its
block's pixels.  A caller who keeps an earlier grid and its image (a
progressive receiver) passes them as `since`, and only the blocks whose
tokens changed are computed again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BLOCK = 16


class MaskedGridError(Exception):
    """Synthesis was asked to run on a grid with masked positions."""


@dataclass(frozen=True)
class CodecConfig:
    channels: int = 64
    quality: float = 1.0
    clamp: int = 127

    def __post_init__(self):
        # The packet header carries the channel count in one byte.
        if not 1 <= self.channels <= 255:
            raise ValueError("channels must be in 1..255")
        if not 0 < self.quality < float("inf"):
            raise ValueError("quality must be positive and finite")
        if self.clamp < 1:
            raise ValueError("clamp must be positive")


@dataclass
class TokenGrid:
    """Quantized integer tokens on an h x w grid with C channels."""

    values: np.ndarray  # (h, w, C) int16
    known: np.ndarray  # (h, w) bool
    clamp_count: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int16)
        self.known = np.asarray(self.known, dtype=bool)
        if self.values.ndim != 3:
            raise ValueError("values must be (h, w, C)")
        if self.known.shape != self.values.shape[:2]:
            raise ValueError("known mask must be (h, w)")

    @property
    def h(self):
        return self.values.shape[0]

    @property
    def w(self):
        return self.values.shape[1]

    @property
    def channels(self):
        return self.values.shape[2]

    def copy(self):
        return TokenGrid(self.values.copy(), self.known.copy(), self.clamp_count)


def _dct_matrix(n=BLOCK):
    k = np.arange(n)
    d = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    d *= np.sqrt(2.0 / n)
    d[0] *= np.sqrt(0.5)
    return d


_DCT = _dct_matrix()


def _zigzag_order(n=BLOCK):
    order = sorted(
        ((r, c) for r in range(n) for c in range(n)),
        key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 else rc[0]),
    )
    return np.array([r * n + c for r, c in order])


_ZIGZAG = _zigzag_order()


def plane_channel_counts(channels: int, planes: int) -> list:
    """Split C token channels across image planes, earliest planes first."""
    if not 1 <= planes <= channels:
        raise ValueError("need at least one channel per plane")
    base = channels // planes
    return [base + (1 if p < channels % planes else 0) for p in range(planes)]


# The DC coefficient of an unshifted 8-bit 16x16 block spans [0, 16*255]
# and low-frequency AC coefficients reach a few hundred; the step scales
# are chosen so the clamp alphabet covers those ranges at quality 1.
DC_STEP_SCALE = 32.0
AC_STEP_SCALE = 8.0


def channel_steps(cfg: CodecConfig, planes: int) -> np.ndarray:
    """Quantizer step per token channel.

    AC channels follow quality * AC_STEP_SCALE * (1 + zigzag_index/C)
    with the zigzag index counted within each plane's channel group; the
    DC channel of each plane uses quality * DC_STEP_SCALE.
    """
    steps = []
    for count in plane_channel_counts(cfg.channels, planes):
        for z in range(count):
            if z == 0:
                steps.append(cfg.quality * DC_STEP_SCALE)
            else:
                steps.append(cfg.quality * AC_STEP_SCALE * (1.0 + z / cfg.channels))
    return np.array(steps)


def pad_image(pixels: np.ndarray) -> np.ndarray:
    """Edge-replicate to multiples of the block size."""
    height, width = pixels.shape[:2]
    ph = (-height) % BLOCK
    pw = (-width) % BLOCK
    pad = ((0, ph), (0, pw)) + ((0, 0),) * (pixels.ndim - 2)
    return np.pad(pixels, pad, mode="edge")


def _block_coefficients(pixels: np.ndarray) -> np.ndarray:
    """Forward transform: (H, W) plane -> (h, w, 256) coefficients."""
    hgt, wid = pixels.shape
    blocks = pixels.reshape(hgt // BLOCK, BLOCK, wid // BLOCK, BLOCK)
    blocks = blocks.transpose(0, 2, 1, 3).astype(np.float64)
    coeffs = _DCT @ blocks @ _DCT.T
    return coeffs.reshape(coeffs.shape[0], coeffs.shape[1], BLOCK * BLOCK)


def analyze(pixels: np.ndarray, cfg: CodecConfig) -> TokenGrid:
    """Image (H, W) or (H, W, planes) uint8 -> fully known TokenGrid."""
    pixels = np.asarray(pixels)
    if pixels.size == 0:
        raise ValueError("empty image")
    planes = 1 if pixels.ndim == 2 else pixels.shape[2]
    padded = pad_image(pixels)
    if padded.ndim == 2:
        padded = padded[:, :, None]
    h = padded.shape[0] // BLOCK
    w = padded.shape[1] // BLOCK
    counts = plane_channel_counts(cfg.channels, planes)
    steps = channel_steps(cfg, planes)
    parts = []
    for p in range(planes):
        coeffs = _block_coefficients(padded[:, :, p])
        parts.append(coeffs[:, :, _ZIGZAG[: counts[p]]])
    raw = np.concatenate(parts, axis=2) / steps
    quantized = np.rint(raw)
    clamped = np.clip(quantized, -cfg.clamp, cfg.clamp)
    clamp_count = int((quantized != clamped).sum())
    return TokenGrid(
        values=clamped.astype(np.int16),
        known=np.ones((h, w), dtype=bool),
        clamp_count=clamp_count,
    )


@lru_cache(maxsize=16)
def _synthesis_basis(cfg: CodecConfig, planes: int) -> np.ndarray:
    """(C, 256 * planes) read-only: row c is token channel c's image block.

    A channel's block is its zigzag coefficient's cosine basis block,
    scaled by its quantizer step and laid out (row, column, plane), so a
    position's C token values times this matrix are its block's pixels.
    A header picks the codec, so the process keeps the last 16 only.
    """
    steps = channel_steps(cfg, planes)
    basis = np.zeros((cfg.channels, BLOCK, BLOCK, planes))
    c = 0
    for p, count in enumerate(plane_channel_counts(cfg.channels, planes)):
        for z in _ZIGZAG[:count]:
            u, v = divmod(z, BLOCK)
            basis[c, :, :, p] = np.outer(_DCT[u], _DCT[v]) * steps[c]
            c += 1
    basis = basis.reshape(cfg.channels, -1)
    basis.flags.writeable = False
    return basis


def synthesize(grid: TokenGrid, cfg: CodecConfig, out_height: int,
               out_width: int, planes: int = 1, since=None) -> np.ndarray:
    """Inverse transform to an image, cropped to the requested size.

    `since` is an earlier call's (grid, image) for the same codec and
    output size: only the positions whose tokens differ from that grid
    are synthesized, and every other pixel is copied from that image.
    The result is a new array either way.
    """
    if not grid.known.all():
        raise MaskedGridError("grid has masked positions; conceal first")
    blocks = np.empty((grid.h, BLOCK, grid.w, BLOCK, planes), np.uint8)
    out = blocks.reshape(grid.h * BLOCK, grid.w * BLOCK, planes)[
        :out_height, :out_width]
    if since is None:
        changed = np.ones((grid.h, grid.w), bool)
    else:
        old, image = since
        changed = (grid.values != old.values).any(axis=2)
        out[...] = image.reshape(out.shape)
    pixels = grid.values[changed] @ _synthesis_basis(cfg, planes)
    np.rint(pixels, out=pixels)
    np.clip(pixels, 0, 255, out=pixels)
    blocks.transpose(0, 2, 1, 3, 4)[changed] = pixels.reshape(
        -1, BLOCK, BLOCK, planes)
    return out[:, :, 0] if planes == 1 else out
