"""Dual-head statistical context model.

Given a partially masked token grid, produce for every masked position
and channel (a) a local Gaussian estimate (mean, sigma) for conditional
entropy coding and (b) an integer value prediction for loss
concealment.  The local estimate summarizes the known neighborhood
inside a fixed window (inverse-distance weighting); where no window
neighbor is known it is the global per-channel prior shipped in the
model file.  `density` mixes it with that prior under the prior's
pooled weights, so encoder and decoder reproduce identical
distributions with zero side information.

Each caller computes only the head it reads.  `pipeline.Stream.model`
codes slices from the density head (means, sigmas and whether a
neighbor is known) at their positions.  It predicts any set of slices
in one pass: `collect_context` gives each point its slice and the
mode's context relation, and the window sums count a neighbor only if
its slice is in the point's context, so each point's estimate is the
one a grid masked to its own slice's context gives.  The receiver's
concealment reads only the value head, so it calls `predict` with
`sigmas=False`, which sums the window over known and value alone and
skips the value^2 sums and the spread.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    def mixture_weights(self) -> np.ndarray:
        """(2, 2) weights of the (local, prior) mixture components, by
        neighbour class: row 0 where no window neighbor is known, where
        the three logits count equally, row 1 where one is.  The last
        two logits both weigh the prior component, so their weights are
        pooled by one addition."""
        s = _softmax(self.logits)
        third = 1.0 / MIXTURES
        return np.array([[third, third + third], [s[0], s[1] + s[2]]])

    @cached_property
    def fingerprint(self) -> bytes:
        """8-byte BLAKE2b digest of the prior's .rcpm bytes."""
        return hashlib.blake2b(prior_bytes(self), digest_size=8).digest()


@lru_cache(maxsize=32)
def default_prior(channels: int, clamp: int = 127) -> PriorModel:
    """Uninformed prior: zero mean, wide first channel, narrowing tail.

    Built once per process for each (channels, clamp): every caller gets
    the same model, whose arrays are read-only, so its `fingerprint` and
    `mixture_weights` are computed once too.
    """
    z = np.arange(channels)
    stds = np.maximum(SIGMA_FLOOR, clamp / 2.0 / (1.0 + z))
    prior = PriorModel(means=np.zeros(channels), stds=stds)
    prior.means.setflags(write=False)
    prior.stds.setflags(write=False)
    return prior


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
    """Local estimates and value predictions at a list of positions.

    Row j of every array belongs to grid position `positions[j]`.  The
    local (mean, sigma) is the prior's where no window neighbor is
    known; `pipeline.TableStore` mixes it with the prior.
    """

    positions: np.ndarray  # (n, 2) intp, (row, col) of each prediction
    means: np.ndarray  # (n, C) local means
    sigmas: np.ndarray | None  # (n, C) local sigmas; None: value head only
    values: np.ndarray  # (n, C) int16
    has_neighbors: np.ndarray  # (n,) bool, some window neighbor is known


@dataclass(frozen=True)
class Context:
    """The points of some slices on a grid, and what each may read.

    A point reads a known token of `grid` only if that token's slice is
    in the point's own slice's context: slice a's point reads slice b's
    tokens where `sees[a, b]`.  `owner` gives each grid position's
    slice, so it names both the point's and the neighbor's.
    """

    grid: TokenGrid
    positions: np.ndarray  # (n, 2) intp, the points, slice by slice
    owner: np.ndarray  # (h, w) intp, 1-based slice of each position
    sees: np.ndarray  # (L + 1, L + 1) bool; row and column 0 are False


def collect_context(slices, mode: ContextMode, plan: SlicePlan,
                    grid: TokenGrid) -> Context:
    """The points of `slices`, slice by slice and each slice's in plan
    order, each reading only its own slice's context slices of `grid`.

    It builds no copy of the grid: the mode's matrix becomes `sees`, and
    `predict` applies it per window neighbor.  It does not check that
    the context slices are known in `grid`: the sender holds every
    slice, and `pipeline.Receiver` asks for a slice only once its
    context slices are decoded.
    """
    sees = np.zeros((plan.l + 1, plan.l + 1), dtype=bool)
    sees[1:, 1:] = mode.g
    at, bounds = plan.position_array, plan.boundaries
    positions = np.concatenate([at[bounds[i - 1]:bounds[i]] for i in slices])
    return Context(grid=grid, positions=positions, owner=plan.owner,
                   sees=sees)


def _window_kernel(window: int) -> np.ndarray:
    radius = window // 2
    dy, dx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    dist = np.sqrt(dy * dy + dx * dx)
    kernel = np.zeros_like(dist)
    nonzero = dist > 0
    kernel[nonzero] = 1.0 / dist[nonzero]
    return kernel


@lru_cache(maxsize=None)
def _window_taps(window: int):
    """(dy, dx, weight) of the nonzero kernel taps, in the kernel's C
    order, each offset relative to the window's centre.  Built once per
    window size; the arrays are read-only."""
    kernel = _window_kernel(window)
    tap_y, tap_x = np.nonzero(kernel)
    taps = (tap_y - window // 2, tap_x - window // 2, kernel[tap_y, tap_x])
    for a in taps:
        a.flags.writeable = False
    return taps


def _softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


# Positions per gather block are capped so one (block, columns) float64
# temporary, or the block's (block, taps) index array, stays near 1 MB.
# A block whose (taps read, points, columns) gather fits the same 1 MB
# is gathered at once and summed over the taps; a larger one loops over
# its taps.
_BLOCK_ELEMENTS = 1 << 17


def _known_columns(grid: TokenGrid, squares: bool, radius: int) -> np.ndarray:
    """Float64 columns [known, values] per grid position, plus values^2
    if `squares`, with values zeroed where unknown, and `radius` rows and
    columns of zeros on every side: (h + 2 radius, w + 2 radius, m)."""
    h, w, channels = grid.values.shape
    m = 1 + (2 if squares else 1) * channels
    padded = np.zeros((h + 2 * radius, w + 2 * radius, m))
    inner = padded[radius:radius + h, radius:radius + w]
    inner[:, :, 0] = grid.known
    values = inner[:, :, 1:channels + 1]
    values[...] = grid.values * grid.known[:, :, None]
    if squares:
        np.multiply(values, values, out=inner[:, :, channels + 1:])
    return padded


def _window_sums(padded: np.ndarray, rows, cols, window: int,
                 context=None) -> np.ndarray:
    """Inverse-distance window sums of per-position columns at points.

    `padded` holds m columns per grid position, zero-padded by
    `window // 2` on every side, as `_known_columns` stacks them: column
    0 is the known mask and every column is 0.0 where that mask is.
    The result is (len(rows), m).  Each sum starts at 0.0 and adds
    `neighbor * weight` over the nonzero kernel taps in the kernel's C
    order, exactly the arithmetic of a zero-padded full-grid
    convolution, so the results are bit-identical to
    `scipy.ndimage.convolve(..., mode="constant", cval=0.0)` there.  A
    tap whose neighbor is unknown or off the grid adds +0.0, which
    leaves a sum that started at +0.0 unchanged, so such taps are
    skipped.

    With a `context`, the (owner, sees) pair of a `Context`, a point
    reads a known neighbor only if `sees[owner[point], owner[neighbor]]`.
    Any other tap's index is pointed at padded row 0, which is padding
    and so 0.0 in every column: the tap counts as an unknown neighbor,
    and every sum is the one a grid masked to the point's context gives.
    A point whose slice sees no slice reads nothing and is skipped.

    A block of points whose gather of every tap read fits
    `_BLOCK_ELEMENTS` is gathered as one (taps, points, m) array and
    reduced over its first axis from 0.0: the same additions in the same
    tap order as the per-tap loop of larger blocks.
    """
    height, width, m = padded.shape
    dy, dx, tap_w = _window_taps(window)
    radius = window // 2
    padded = padded.reshape(-1, m)
    # Flat offsets of the taps relative to a point's padded index; one
    # gather of a padded row serves every column.
    offsets = dy * width + dx
    base = (rows + radius) * width + cols + radius
    if context is None:
        known = padded[:, 0] > 0.0
    else:
        owner, sees = context
        point_slice = owner[rows, cols]
        live = np.flatnonzero(sees.any(axis=1)[point_slice])
        base = base[live]
        # Flat index into `sees` of each point's row, and the slice of
        # each padded position (0, seen by no slice, on the padding).
        seen_from = point_slice[live] * sees.shape[1]
        slice_of = np.zeros((height, width), np.intp)
        slice_of[radius:height - radius, radius:width - radius] = owner
        slice_of = slice_of.reshape(-1)
        sees = sees.reshape(-1)
    n = len(base)
    sums = np.zeros((n, m))
    block = max(1, _BLOCK_ELEMENTS // max(m, len(offsets)))
    for lo in range(0, n, block):
        idx = base[lo:lo + block, None] + offsets
        if context is None:
            read = known[idx]
        else:
            # In the point's context; an unknown neighbor there adds
            # +0.0 all the same.
            at = slice_of[idx]
            at += seen_from[lo:lo + block, None]
            read = sees[at]
            idx *= read
        out = sums[lo:lo + block]
        used = np.flatnonzero(read.any(axis=0))
        if len(used) * out.size <= _BLOCK_ELEMENTS:
            terms = padded.take(idx[:, used].T, axis=0)
            terms *= tap_w[used, None, None]
            np.add.reduce(terms, axis=0, out=out, initial=0.0)
            continue
        term = np.empty_like(out)
        for t in used.tolist():
            # Every index is inside `padded`; "clip" only lets `take`
            # write into `term` without an intermediate buffer.
            padded.take(idx[:, t], axis=0, out=term, mode="clip")
            term *= tap_w[t]
            out += term
    if context is None:
        return sums
    every = np.zeros((len(rows), m))
    every[live] = sums
    return every


def predict(grid, prior: PriorModel, positions=None,
            sigmas: bool = True) -> PredictorOutput:
    """Density head and concealment head at `positions` only.

    `grid` is a `TokenGrid`, whose known tokens every point reads, or a
    `Context`, whose points read only their own slices' context slices
    of its grid.  `positions` is a sequence of (row, col) pairs; it
    defaults to a context's points, or to a grid's masked positions in
    row-major order, the ones concealment fills.  The local estimate is
    the inverse-distance-weighted window estimate where any window
    neighbor is read and the prior elsewhere.  The value head is its
    rounded mean, so both heads agree by construction.  With
    `sigmas=False` the local spread is not computed and the output's
    `sigmas` is None: enough for `conceal`, not for
    `density.mixture_keys`.
    """
    context = None
    if isinstance(grid, Context):
        context = (grid.owner, grid.sees)
        if positions is None:
            positions = grid.positions
        grid = grid.grid
    if prior.channels != grid.channels:
        raise ValueError("prior channel count does not match grid")
    if positions is None:
        positions = np.argwhere(~grid.known)
    positions = np.asarray(positions, dtype=np.intp).reshape(-1, 2)
    rows, cols = positions[:, 0], positions[:, 1]
    if np.any((rows < 0) | (rows >= grid.h) | (cols < 0) | (cols >= grid.w)):
        raise ValueError("positions must lie on the grid")
    channels = grid.channels
    window = prior.window
    sums = _window_sums(_known_columns(grid, sigmas, window // 2), rows,
                        cols, window, context)
    sum_w = sums[:, 0]
    has_neighbors = sum_w > 0.0
    safe_w = np.where(has_neighbors, sum_w, 1.0)[:, None]
    # The window means of the values, then of their squares, in place.
    sums[:, 1:] /= safe_w
    local_mean = sums[:, 1:channels + 1]
    neighbor_sel = has_neighbors[:, None]
    means = np.where(neighbor_sel, local_mean, prior.means)
    spread = None
    if sigmas:
        # The variance, clipped at 0, then its floored root, in place.
        local_sigma = sums[:, channels + 1:]
        local_sigma -= local_mean * local_mean
        np.maximum(local_sigma, 0.0, out=local_sigma)
        np.sqrt(local_sigma, out=local_sigma)
        np.maximum(SIGMA_FLOOR, local_sigma, out=local_sigma)
        spread = np.where(neighbor_sel, local_sigma, prior.stds)
    return PredictorOutput(
        positions=positions,
        means=means,
        sigmas=spread,
        values=np.rint(means).astype(np.int16),
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
