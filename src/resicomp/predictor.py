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

The window weights are integers, rint(2**16 / d) at distance d, so
every window sum is an integer that float64 holds exactly (up to
MAX_WINDOW): the order in which its terms are added cannot change it.
The sums are therefore BLAS products, one per tile of points, and the
same on every machine and BLAS kernel.

Each caller computes only the head it reads.  `pipeline.send` codes
every slice from the density head (means, sigmas and whether a neighbor
is known) in one pass: `collect_context` gives each point its slice and
the mode's context relation, and the window sums count a neighbor only
if its slice is in the point's context, so each point's estimate is the
one a grid masked to its own slice's context gives.  A receiver calls
neither: its `RunningSums` is one running state of window sums for both
of its reads.  Each slice that decodes pushes the terms of its tokens,
once, into the still-masked positions that read them, so a decode pass
reads its slices' sums where `predict` would sum their windows again,
and concealment reads the same sums plus those of the decoded slices
outside each position's context.  The sums are exact, so both reads
equal a fresh `predict` bit for bit.  All share one step from window
sums to estimates.
"""

from __future__ import annotations

import hashlib
import math
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

# Window weights are rint(_WEIGHT_SCALE / d) at distance d from the
# centre: integers, so every window sum is an integer, which float64
# holds exactly in any order of addition up to MAX_WINDOW.
_WEIGHT_SCALE = 1 << 16


@lru_cache(maxsize=None)
def _window_kernel(window: int) -> np.ndarray:
    """The (window, window) weights, 0 at the centre; read-only."""
    radius = window // 2
    dy, dx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    dist = np.sqrt(dy * dy + dx * dx)
    kernel = np.zeros_like(dist)
    nonzero = dist > 0
    kernel[nonzero] = np.rint(_WEIGHT_SCALE / dist[nonzero])
    kernel.flags.writeable = False
    return kernel


def _max_window() -> int:
    """The largest odd window whose every window sum is exact.

    A token is int16, so |value| <= 2**15, and the largest sum is of
    value**2 over a whole window: below 2**53 while the kernel's sum
    times 2**30 is.  Every partial sum of any order is smaller.
    """
    window = 1
    # Uncached: only the windows in use need to stay built.
    while _window_kernel.__wrapped__(window + 2).sum() * 2.0**30 < 2.0**53:
        window += 2
    return window


MAX_WINDOW = _max_window()  # 37


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
        if not 1 <= self.window <= MAX_WINDOW or self.window % 2 == 0:
            raise ValueError(f"window must be odd and in 1..{MAX_WINDOW}")
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
    slice.
    """
    sees = np.zeros((plan.l + 1, plan.l + 1), dtype=bool)
    sees[1:, 1:] = mode.g
    at, bounds = plan.position_array, plan.boundaries
    positions = np.concatenate([at[bounds[i - 1]:bounds[i]] for i in slices])
    return Context(grid=grid, positions=positions, owner=plan.owner,
                   sees=sees)


def _softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


# Elements of one weight matrix, a tile's points by the padded positions
# their windows span: 2**15 float64 are 256 KiB, so a tile's weights and
# the temporaries of its product stay in a core's cache.  At window 11 a
# tile of every position is then at most 9 x 9 points.
_PRODUCT_ELEMENTS = 1 << 15
# A tile's side in positions, however sparse its points: a point's row
# of weights spans its whole tile, so a wider tile costs each point more
# than its fewer products save.
_MAX_TILE = 32


@lru_cache(maxsize=None)
def _kernel_plane(window: int) -> np.ndarray:
    """The kernel at [_MAX_TILE - 1, _MAX_TILE - 1] of a square of zeros,
    2 _MAX_TILE - 1 + 2 radius wide; read-only.  The window of it at
    [_MAX_TILE - 1 - i, _MAX_TILE - 1 - j] is the kernel of the point at
    (i, j) of a tile, over the padded positions from the tile's corner."""
    side = 2 * _MAX_TILE - 1 + window - 1
    plane = np.zeros((side, side))
    corner = _MAX_TILE - 1
    plane[corner:corner + window, corner:corner + window] = (
        _window_kernel(window))
    plane.flags.writeable = False
    return plane


def _weight_tiles(rows, cols, window: int, shape):
    """Cut points into tiles; yield (points, span, weights) per tile.

    `points` indexes the tile's points, `span` is the region of a
    `shape` array, the grid zero-padded by `window // 2` on every side,
    that their windows cover, and `weights` the (points, span size)
    matrix whose row j is point j's kernel there.

    The points' bounding box is cut into equal tiles of at most s x s
    positions, s the largest side up to _MAX_TILE whose weight matrix,
    at the box's density of points, fits _PRODUCT_ELEMENTS: s * s *
    density points by (s + 2 radius)**2 positions.  A tile that holds
    more points than one matrix may, such as a dense corner of a sparse
    box, is yielded in pieces, so every matrix fits the bound or has a
    single row.
    """
    if not len(rows):
        return
    radius = window // 2
    top, left = rows.min(), cols.min()
    height, width = rows.max() - top + 1, cols.max() - left + 1
    budget = math.isqrt(_PRODUCT_ELEMENTS * height * width // len(rows))
    side = min(_MAX_TILE,
               max(1, math.isqrt(budget + radius * radius) - radius))
    down, across = -(-height // side), -(-width // side)
    tile_h, tile_w = -(-height // down), -(-width // across)
    piece = max(1, _PRODUCT_ELEMENTS
                // ((tile_h + 2 * radius) * (tile_w + 2 * radius)))
    if down == across == 1:
        # One tile, as on small grids: the points in their own order,
        # without the sort (about 4% of a 96x112 C=64 episode).
        order, in_y, in_x = np.arange(len(rows)), rows - top, cols - left
        cuts, tiles = [0, len(rows)], [0]
    else:
        tile_y, in_y = np.divmod(rows - top, tile_h)
        tile_x, in_x = np.divmod(cols - left, tile_w)
        tile = tile_y * across + tile_x
        order = np.argsort(tile, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(tile[order])) + 1).tolist(),
                len(order)]
        tiles = tile[order[cuts[:-1]]].tolist()
    plane = _kernel_plane(window)
    corner = _MAX_TILE - 1
    for lo, hi, t in zip(cuts, cuts[1:], tiles):
        y, x = divmod(t, across)
        y, x = top + y * tile_h, left + x * tile_w
        span_h = min(tile_h + 2 * radius, shape[0] - y)
        span_w = min(tile_w + 2 * radius, shape[1] - x)
        # Every span_h x span_w window of the plane, as sliding_window_view
        # gives them, without its checks.
        view = np.ndarray((plane.shape[0] - span_h + 1,
                           plane.shape[1] - span_w + 1, span_h, span_w),
                          plane.dtype, plane, strides=plane.strides * 2)
        for start in range(lo, hi, piece):
            at = order[start:min(hi, start + piece)]
            weights = view[corner - in_y[at], corner - in_x[at]]
            yield (at, np.s_[y:y + span_h, x:x + span_w],
                   weights.reshape(len(at), -1))


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
    """Window sums of per-position columns at points.

    `padded` holds m columns per grid position, zero-padded by
    `window // 2` on every side, as `_known_columns` stacks them: column
    0 is the known mask and every column is 0.0 where that mask is.
    The result is (len(rows), m), each point's sum of weight x column
    over its window.  Every term is an integer, and every partial sum
    is below 2**53 (MAX_WINDOW), so each sum is exact whatever order
    its terms are added in: it equals the zero-padded full-grid
    convolution `scipy.ndimage.convolve(..., mode="constant", cval=0.0)`
    with `_window_kernel` there.  Each tile of points (`_weight_tiles`) is one
    product of its weight matrix and the columns of its span.

    With a `context`, the (owner, sees) pair of a `Context`, a point
    reads a known neighbor only if `sees[owner[point], owner[neighbor]]`:
    the point's weight of any other neighbor is zeroed, so every sum is
    the one a grid masked to the point's context gives.  A point whose
    slice sees no slice reads nothing and is skipped.
    """
    height, width, m = padded.shape
    radius = window // 2
    sums = np.zeros((len(rows), m))
    points = np.arange(len(rows))
    if context is not None:
        owner, sees = context
        point_slice = owner[rows, cols]
        points = np.flatnonzero(sees.any(axis=1)[point_slice])
        # The slice of each padded position (0, seen by no slice, on
        # the padding), and the 0/1 weight factor of each slice pair.
        slice_of = np.zeros((height, width), np.intp)
        slice_of[radius:height - radius, radius:width - radius] = owner
        seen = sees.astype(np.float64)
    for at, span, weights in _weight_tiles(rows[points], cols[points],
                                           window, (height, width)):
        at = points[at]
        if context is not None:
            weights *= np.take(seen[point_slice[at]],
                               slice_of[span].reshape(-1), axis=1)
        sums[at] = weights @ padded[span].reshape(-1, m)
    return sums


def _estimates(positions, sums, prior: PriorModel,
               sigmas: bool) -> PredictorOutput:
    """Both heads at `positions` from their window sums.

    `sums` is (n, m), the columns `_known_columns` stacks, with the
    squares only if `sigmas`; it is overwritten.  The local estimate is
    the window mean where any window neighbor is read and the prior
    elsewhere, and the value head is its rounded mean.
    """
    channels = prior.channels
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


def predict(grid, prior: PriorModel, positions=None) -> PredictorOutput:
    """Density head and concealment head at `positions` only.

    `grid` is a `TokenGrid`, whose known tokens every point reads, or a
    `Context`, whose points read only their own slices' context slices
    of its grid.  `positions` is a sequence of (row, col) pairs; it
    defaults to a context's points, or to a grid's masked positions in
    row-major order, the ones concealment fills.  The local estimate is
    the inverse-distance-weighted window estimate where any window
    neighbor is read and the prior elsewhere.  The value head is its
    rounded mean, so both heads agree by construction.  A receiver reads
    both heads from a `RunningSums` instead.
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
    window = prior.window
    sums = _window_sums(_known_columns(grid, True, window // 2), rows,
                        cols, window, context)
    return _estimates(positions, sums, prior, sigmas=True)


def _bitset(flags) -> int:
    """The indices where `flags` is True, as the bits of an int."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


class RunningSums:
    """Window sums on a grid whose tokens only become known: one state
    for a receiver's decode passes and its concealment.

    `owner` gives each grid position's 1-based slice and `g` the mode's
    context relation, as `collect_context` reads them: a point of slice
    k reads slice j in its decode pass where `g[k - 1, j - 1]`.  The
    state keeps two parts, each an array of sums per grid position:

    - the context sums, [known, values, values^2] over the known tokens
      of each position's context slices, if any slice's context is not
      empty;
    - the rest, [known, values] over the known tokens of every other
      slice, made by one pull at the first concealment, at the points
      that have such a token.

    Each read first pushes the terms of the tokens that became known
    since the last one (for the first read, all known ones) into the
    masked positions of each part that read them, one transposed
    product per tile of the tokens added straight into the part's
    block of positions.  So a token goes once into each masked position
    that reads it, and into no part that has no such position: under LC
    a masked slice's context holds every decoded slice, so the rest
    stays empty.  A position's sums are read only while it is masked,
    and the context sums only at a slice whose context is not empty;
    elsewhere a push may add what it likes.

    The sums are exact integers, so a read is bit for bit what `predict`
    gives, in whatever order the tokens became known: `model` the
    density head of a `Context` at its points, `predict` the value head
    of the whole grid at its masked positions.  A known token must not
    change or become masked again.
    """

    def __init__(self, grid: TokenGrid, prior: PriorModel, owner, g):
        if prior.channels != grid.channels:
            raise ValueError("prior channel count does not match grid")
        self.prior = prior
        sees = np.zeros((len(g) + 1,) * 2, bool)
        sees[1:, 1:] = g
        self._owner, self._sees = owner, sees
        self._reads = sees.any(axis=1)  # slices whose context is not empty
        self._reads_at = self._reads[owner]  # the same, per position
        # Sets of slices are the bits of a Python int, slice k at bit k:
        # the slices that read slice j's tokens, those whose context is
        # not empty, and those with masked positions.
        self._readers = [_bitset(column) for column in sees.T]
        self._reading = _bitset(self._reads)
        # Every token is masked until a read pushes it.
        self._left = np.bincount(owner.reshape(-1), minlength=len(sees))
        self._masked = _bitset(self._left > 0)
        self._left = self._left.tolist()
        self._known = np.zeros_like(grid.known)
        self._count = 0
        self._sums = None  # the context sums, if any slice reads any
        if self._reads.any():
            self._sums = np.zeros((grid.h, grid.w, 1 + 2 * grid.channels))
        self._rest = None  # the rest, once a token goes into it
        self._concealed = False

    def _push(self, grid: TokenGrid):
        """Add the terms of the tokens known since the last read."""
        if np.count_nonzero(grid.known) == self._count:
            return
        new = np.argwhere(grid.known & ~self._known)
        self._count += len(new)
        rows, cols = new[:, 0], new[:, 1]
        self._known[rows, cols] = True
        slices = self._owner[rows, cols]
        counts = np.bincount(slices)
        sources = np.flatnonzero(counts).tolist()
        for j in sources:
            self._left[j] -= int(counts[j])
            if not self._left[j]:
                self._masked &= ~(1 << j)
        # The masked slices of each part that take each new slice's
        # tokens, and the new slices whose tokens go anywhere.
        reading = self._masked & self._reading
        rest = self._masked if self._concealed else 0
        into = {j: self._readers[j] & reading for j in sources}
        other = {j: rest & ~self._readers[j] for j in sources}
        useful = [j for j in sources if into[j] or other[j]]
        parts = []
        # A part needs a mask only if some of its masked slices do not
        # take some new slice's tokens.
        if any(into[j] for j in useful):
            mask = None
            if any(into[j] != reading for j in useful):
                mask = self._mask(self._sees, reading)
            parts.append((self._sums, mask))
        if any(other[j] for j in useful):
            if self._rest is None:
                self._rest = np.zeros((grid.h, grid.w, 1 + grid.channels))
            mask = None
            if any(other[j] != rest for j in useful):
                mask = self._mask(~self._sees, rest)
            parts.append((self._rest, mask))
        if not parts:
            return
        if len(useful) < len(sources):
            keep = np.isin(slices, useful)
            rows, cols, slices = rows[keep], cols[keep], slices[keep]
        channels = grid.channels
        terms = np.empty((len(rows), 1 + 2 * channels))
        terms[:, 0] = 1.0
        values = terms[:, 1:channels + 1]
        values[...] = grid.values[rows, cols]
        np.multiply(values, values, out=terms[:, channels + 1:])
        self._add(rows, cols, slices, terms, parts)

    def _mask(self, takes, target: int) -> np.ndarray:
        """(L + 1, L + 1) float64, [j, k] 1.0 where a position of slice k
        in `target` takes slice j's tokens, `takes[k, j]`, else 0.0."""
        at = np.array([(target >> k) & 1 for k in range(len(takes))], bool)
        return (takes & at[:, None]).T.astype(np.float64)

    def _add(self, rows, cols, slices, terms, parts):
        """Add the terms of the tokens at (rows, cols), of `slices`, to
        the window positions around each, into each (sums, mask) of
        `parts`: at every position, or where `mask[j, k]` for a token of
        slice j and a position of slice k."""
        radius = self.prior.window // 2
        height, width = self._owner.shape
        padded = (height + 2 * radius, width + 2 * radius)
        for at, (ys, xs), weights in _weight_tiles(rows, cols,
                                                   self.prior.window, padded):
            # The span's grid positions: the weights of the padding go.
            top, bottom = max(ys.start, radius), min(ys.stop, height + radius)
            left, right = max(xs.start, radius), min(xs.stop, width + radius)
            if (top, bottom, left, right) != (ys.start, ys.stop, xs.start,
                                              xs.stop):
                weights = weights.reshape(
                    len(at), ys.stop - ys.start, xs.stop - xs.start)[
                    :, top - ys.start:bottom - ys.start,
                    left - xs.start:right - xs.start].reshape(len(at), -1)
            span = np.s_[top - radius:bottom - radius,
                         left - radius:right - radius]
            for sums, mask in parts:
                block = sums[span]
                taken = weights
                if mask is not None:
                    taken = weights * np.take(mask[slices[at]],
                                              self._owner[span].reshape(-1),
                                              axis=1)
                added = (taken.T @ terms[at, :block.shape[2]]).reshape(
                    block.shape)
                added += block
                block[...] = added

    def model(self, grid: TokenGrid, positions) -> PredictorOutput:
        """The density head at masked `positions`, each reading only its
        own slice's context slices: `predict` of a `Context` there."""
        self._push(grid)
        positions = np.asarray(positions, dtype=np.intp).reshape(-1, 2)
        rows, cols = positions[:, 0], positions[:, 1]
        if self._sums is None:
            sums = np.zeros((len(positions), 1 + 2 * grid.channels))
        else:
            sums = self._sums[rows, cols]
            reads = self._reads_at[rows, cols]
            if not reads.all():
                sums[~reads] = 0.0  # a slice whose context is empty
        return _estimates(positions, sums, self.prior, sigmas=True)

    def predict(self, grid: TokenGrid) -> PredictorOutput:
        """The value head at grid's masked positions, in row-major order:
        `predict(grid, prior)`'s."""
        self._push(grid)
        positions = np.argwhere(~grid.known)
        if not self._concealed:
            self._pull_rest(grid, positions)
            self._concealed = True
        values = 1 + grid.channels
        rows, cols = positions[:, 0], positions[:, 1]
        if self._sums is None:
            sums = np.zeros((len(positions), values))
        else:
            sums = self._sums[rows, cols, :values]
            sums[~self._reads_at[rows, cols]] = 0.0
        if self._rest is not None:
            sums += self._rest[rows, cols]
        return _estimates(positions, sums, self.prior, sigmas=False)

    def _pull_rest(self, grid: TokenGrid, positions):
        """Make the rest at `positions`, the masked ones, if any of them
        reads a known token outside its context."""
        owner, radius = self._owner, self.prior.window // 2
        # Which slices' points read which known slices' tokens here.
        known = np.bincount(owner[grid.known],
                            minlength=len(self._sees)) > 0
        reads = ~self._sees & known
        points = np.bincount(owner[positions[:, 0], positions[:, 1]],
                             minlength=len(self._sees)) > 0
        if not reads[points].any():
            return
        context = (owner, reads)
        if reads[np.ix_(points, known)].all():
            context = None  # every point reads every known token
        self._rest = np.zeros((grid.h, grid.w, 1 + grid.channels))
        self._rest[positions[:, 0], positions[:, 1]] = _window_sums(
            _known_columns(grid, False, radius), positions[:, 0],
            positions[:, 1], self.prior.window, context)


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
