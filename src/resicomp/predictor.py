"""Dual-head statistical context model.

Given a partially masked token grid, produce for every masked position
and channel (a) a 2-component Gaussian mixture for conditional entropy
coding and (b) an integer value prediction for loss concealment.  The
first component summarizes the known neighborhood inside a fixed window
(inverse-distance weighting); the second is a global per-channel prior
shipped in the model file, so encoder and decoder reproduce identical
distributions with zero side information.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .context_modes import ContextMode
from .density import SIGMA_FLOOR
from .partition import SlicePlan
from .token_codec import TokenGrid

MODEL_MAGIC = b"RCPM"
MODEL_VERSION = 1
DEFAULT_WINDOW = 11
DEFAULT_LOGITS = (3.0, 0.0, 0.0)
# Logits in a model file: the local component's, then two that both
# weigh the prior component (see predict).
MIXTURES = 3


class SynchronizationError(Exception):
    """A required context packet is missing; the slice is undecodable."""

    def __init__(self, slice_index, missing_context):
        self.slice_index = slice_index
        self.missing_context = missing_context
        super().__init__(
            f"slice {slice_index} needs context slice {missing_context}"
        )


@dataclass(frozen=True)
class PriorModel:
    """Global per-channel fallback distribution plus fixed predictor knobs."""

    means: np.ndarray  # (C,)
    stds: np.ndarray  # (C,)
    window: int = DEFAULT_WINDOW
    logits: tuple = DEFAULT_LOGITS

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        if means.shape != stds.shape or means.ndim != 1:
            raise ValueError("means and stds must be matching 1-D arrays")
        logits = tuple(float(x) for x in self.logits)
        if not np.all(np.isfinite(np.concatenate([means, stds, logits]))):
            raise ValueError("prior means, stds and logits must be finite")
        if np.any(stds < SIGMA_FLOOR):
            raise ValueError(f"prior stds must be >= {SIGMA_FLOOR}")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be odd and positive")
        if len(logits) != MIXTURES:
            raise ValueError(f"need {MIXTURES} logits")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "logits", logits)

    @property
    def channels(self):
        return len(self.means)

    @cached_property
    def fingerprint(self) -> bytes:
        """8-byte BLAKE2b digest of the prior's .rcpm bytes."""
        return hashlib.blake2b(prior_bytes(self), digest_size=8).digest()


def default_prior(channels: int, clamp: int = 127) -> PriorModel:
    """Uninformed prior: zero mean, wide first channel, narrowing tail."""
    z = np.arange(channels)
    stds = np.maximum(SIGMA_FLOOR, clamp / 2.0 / (1.0 + z))
    return PriorModel(means=np.zeros(channels), stds=stds)


def fit_prior(grids, window: int = DEFAULT_WINDOW,
              logits=DEFAULT_LOGITS) -> PriorModel:
    """Fit per-channel mean/std over a corpus of fully known TokenGrids."""
    stacked = np.concatenate(
        [g.values.reshape(-1, g.channels).astype(np.float64) for g in grids]
    )
    means = stacked.mean(axis=0)
    stds = np.maximum(SIGMA_FLOOR, stacked.std(axis=0))
    return PriorModel(means=means, stds=stds, window=window, logits=logits)


def prior_bytes(prior: PriorModel) -> bytes:
    """The prior in the .rcpm model file layout."""
    return (MODEL_MAGIC
            + struct.pack("<BHHB", MODEL_VERSION, prior.channels,
                          prior.window, MIXTURES)
            + struct.pack(f"<{MIXTURES}d", *prior.logits)
            + struct.pack(f"<{prior.channels}d", *prior.means)
            + struct.pack(f"<{prior.channels}d", *prior.stds))


def save_prior(path, prior: PriorModel):
    with open(path, "wb") as f:
        f.write(prior_bytes(prior))


def load_prior(path) -> PriorModel:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MODEL_MAGIC:
            raise ValueError(f"bad model magic {magic!r}")
        try:
            version, channels, window, k = struct.unpack("<BHHB", f.read(6))
            if version != MODEL_VERSION:
                raise ValueError(f"unsupported model version {version}")
            if k != MIXTURES:
                raise ValueError(f"unsupported mixture count {k}")
            logits = struct.unpack(f"<{k}d", f.read(8 * k))
            means = np.array(struct.unpack(f"<{channels}d",
                                           f.read(8 * channels)))
            stds = np.array(struct.unpack(f"<{channels}d",
                                          f.read(8 * channels)))
        except struct.error:
            # A short read leaves unpack too few bytes.
            raise ValueError(f"model file {path} is truncated") from None
    return PriorModel(means=means, stds=stds, window=window, logits=logits)


@dataclass
class PredictorOutput:
    """Mixture parameters and value predictions at a list of positions.

    Row j of every array belongs to grid position `positions[j]`.  The
    K=2 mixture components are the local estimate (the prior where no
    window neighbor is known) and the prior.
    """

    positions: np.ndarray  # (n, 2) intp, (row, col) of each prediction
    weights: np.ndarray  # (n, C, 2)
    means: np.ndarray  # (n, C, 2)
    sigmas: np.ndarray  # (n, C, 2)
    values: np.ndarray  # (n, C) int16
    has_neighbors: np.ndarray  # (n,) bool, some window neighbor is known


def collect_context(index: int, mode: ContextMode, flags, plan: SlicePlan,
                    grid: TokenGrid) -> TokenGrid:
    """Grid whose known mask is exactly slice `index`'s context slices.

    flags[j-1] truthy means packet j is available.  Raises
    SynchronizationError when a required context packet is missing.
    The result shares `grid.values`, so values outside the context are
    not zeroed; `predict` reads a value only where it is known.
    """
    contexts = mode.contexts_of(index)
    for j in contexts:
        if not flags[j - 1]:
            raise SynchronizationError(index, j)
    in_context = np.zeros(plan.l + 1, dtype=bool)
    in_context[list(contexts)] = True
    return TokenGrid(values=grid.values, known=in_context[plan.owner])


def _window_kernel(window: int) -> np.ndarray:
    radius = window // 2
    dy, dx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    dist = np.sqrt(dy * dy + dx * dx)
    kernel = np.zeros_like(dist)
    nonzero = dist > 0
    kernel[nonzero] = 1.0 / dist[nonzero]
    return kernel


def _softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


# Positions per gather block are capped so one (block, 2C+1) float64
# temporary, or the block's (block, taps) index array, stays near 1 MB.
_BLOCK_ELEMENTS = 1 << 17


def _window_sums(grid: TokenGrid, rows, cols, window: int):
    """Inverse-distance window sums of known, value and value^2 at points.

    Each sum starts at 0.0 and adds `neighbor * weight` over the nonzero
    kernel taps in the kernel's C order, exactly the arithmetic of a
    zero-padded full-grid convolution, so the results are bit-identical
    to `scipy.ndimage.convolve(..., mode="constant", cval=0.0)` there.
    A tap whose neighbor is unknown or off the grid adds +0.0, which
    leaves a sum that started at +0.0 unchanged, so such taps are skipped.
    """
    h, w, channels = grid.values.shape
    kernel = _window_kernel(window)
    radius = window // 2
    tap_y, tap_x = np.nonzero(kernel)
    tap_w = kernel[tap_y, tap_x]
    width = w + 2 * radius
    # One zero-padded row per grid point: [known, values, values^2], with
    # values zeroed where unknown, so one gather serves all three sums.
    padded = np.zeros((h + 2 * radius, width, 1 + 2 * channels))
    inner = padded[radius:radius + h, radius:radius + w]
    inner[:, :, 0] = grid.known
    inner[:, :, 1:channels + 1] = grid.values * grid.known[:, :, None]
    np.multiply(inner[:, :, 1:channels + 1], inner[:, :, 1:channels + 1],
                out=inner[:, :, channels + 1:])
    padded = padded.reshape(-1, 1 + 2 * channels)
    known = padded[:, 0] > 0.0
    # Flat offsets of the taps relative to a point's padded index.
    offsets = (tap_y - radius) * width + (tap_x - radius)
    base = (rows + radius) * width + cols + radius
    n = len(base)
    sums = np.zeros((n, 1 + 2 * channels))
    block = max(1, _BLOCK_ELEMENTS // max(padded.shape[1], len(offsets)))
    for lo in range(0, n, block):
        idx = base[lo:lo + block, None] + offsets
        out = sums[lo:lo + block]
        term = np.empty_like(out)
        for t in np.flatnonzero(known[idx].any(axis=0)).tolist():
            # Every index is inside `padded`; "clip" only lets `take`
            # write into `term` without an intermediate buffer.
            padded.take(idx[:, t], axis=0, out=term, mode="clip")
            term *= tap_w[t]
            out += term
    return sums[:, 0], sums[:, 1:channels + 1], sums[:, channels + 1:]


def predict(grid: TokenGrid, prior: PriorModel,
            positions=None) -> PredictorOutput:
    """Density head and concealment head at `positions` only.

    `positions` is a sequence of (row, col) pairs; it defaults to the
    grid's masked positions in row-major order, the ones concealment
    fills.  The dominant component is the inverse-distance-weighted
    local estimate where any window neighbor is known; elsewhere both
    components are the prior.  The value head is the rounded
    mean of the dominant component, so both heads agree by construction.
    """
    channels = grid.channels
    if prior.channels != channels:
        raise ValueError("prior channel count does not match grid")
    if positions is None:
        positions = np.argwhere(~grid.known)
    positions = np.asarray(positions, dtype=np.intp).reshape(-1, 2)
    rows, cols = positions[:, 0], positions[:, 1]
    if np.any((rows < 0) | (rows >= grid.h) | (cols < 0) | (cols >= grid.w)):
        raise ValueError("positions must lie on the grid")
    sum_w, sv, sv2 = _window_sums(grid, rows, cols, prior.window)
    has_neighbors = sum_w > 0.0
    safe_w = np.where(has_neighbors, sum_w, 1.0)[:, None]
    local_mean = sv / safe_w
    local_var = np.maximum(sv2 / safe_w - local_mean * local_mean, 0.0)
    local_sigma = np.maximum(SIGMA_FLOOR, np.sqrt(local_var))

    n = len(positions)
    prior_mean = np.broadcast_to(prior.means, (n, channels))
    prior_std = np.broadcast_to(prior.stds, (n, channels))
    neighbor_sel = has_neighbors[:, None]
    mean1 = np.where(neighbor_sel, local_mean, prior_mean)
    sigma1 = np.where(neighbor_sel, local_sigma, prior_std)

    means = np.stack([mean1, prior_mean], axis=-1)
    sigmas = np.stack([sigma1, prior_std], axis=-1)
    # The file's last two logits both weigh the prior component, so their
    # weights are pooled by one addition.  With no neighbor known, the
    # three logits count equally.
    s = _softmax(prior.logits)
    third = 1.0 / MIXTURES
    weights = np.where(neighbor_sel[..., None], [s[0], s[1] + s[2]],
                       [third, third + third])
    weights = np.broadcast_to(weights, means.shape).copy()
    values = np.rint(mean1).astype(np.int16)
    return PredictorOutput(
        positions=positions,
        weights=weights,
        means=means,
        sigmas=sigmas,
        values=values,
        has_neighbors=has_neighbors,
    )


def conceal(grid: TokenGrid, output: PredictorOutput) -> TokenGrid:
    """Fill masked positions with predicted values; pass the rest through.

    `output` must hold the predictions for exactly the masked positions
    in row-major order, as `predict` gives by default.
    """
    if not np.array_equal(output.positions, np.argwhere(~grid.known)):
        raise ValueError("output does not cover exactly the masked positions")
    filled = grid.values.copy()
    filled[output.positions[:, 0], output.positions[:, 1]] = output.values
    return TokenGrid(
        values=filled,
        known=np.ones_like(grid.known),
        clamp_count=grid.clamp_count,
    )
