"""Discretized Gaussian-mixture densities over the token alphabet.

Probability models are evaluated by integrating each mixture component
over unit-width bins centered on the integer symbols, with out-of-range
tail mass folded into the boundary symbols.  The normal CDF uses a
pinned rational approximation so encoder and decoder build identical
integer frequency tables regardless of libm.

The entropy model is indexed.  A symbol's mixture has two components,
the predictor's local estimate and the per-channel prior; the local one
is snapped to a fixed grid, its mean to the nearest 1/8 and its sigma to
one of `SIGMA_LEVELS`, geometrically spaced by `SIGMA_RATIO` from
`SIGMA_FLOOR`.  A symbol is then named by one integer key: (channel,
neighbour class, mean index, sigma index).  A position with no known
neighbour keeps the exact prior for both components and is keyed by its
channel alone.  The snapping uses only multiplication, rounding, square
roots and comparisons, so both ends compute the same keys whatever
their libm.  `key_mixtures` turns a key and the prior into the mixture,
so a table is a function of its key; `pipeline.TableStore` holds a
stream's tables as rows of one array, by key, and builds only the keys
it has not seen.
"""

from __future__ import annotations

import numpy as np

SIGMA_FLOOR = 0.11
FREQ_TOTAL = 1 << 16

# Abramowitz & Stegun 7.1.26 erf approximation, |error| < 1.5e-7.
# Constants and evaluation order are fixed: Horner over t = 1/(1 + p*x).
_AS_P = 0.3275911
_AS_A1 = 0.254829592
_AS_A2 = -0.284496736
_AS_A3 = 1.421413741
_AS_A4 = -1.453152027
_AS_A5 = 1.061405429
_SQRT1_2 = 0.7071067811865476

# Rows per block in the table build.  A block's temporaries (about
# 130 KB each at 255 symbols) fit a core's L2 cache and are small enough
# for the allocator to serve again from freed memory, so a slice does
# not page in fresh memory for every temporary.  Blocking changes no
# result: every row is computed alone.
_BLOCK_ROWS = 64


def _normal_cdf_in_place(x):
    """Overwrite the float64 array x with the standard normal CDF of x.

    The operations are those of 0.5 * (1 + erf(x / sqrt 2)) written out
    with Horner's rule, in the pinned order; only the temporaries differ.
    """
    x *= _SQRT1_2
    negative = x < 0.0
    np.abs(x, out=x)
    t = x * _AS_P
    t += 1.0
    np.divide(1.0, t, out=t)
    poly = t * _AS_A5
    for a in (_AS_A4, _AS_A3, _AS_A2, _AS_A1):
        poly += a
        poly *= t
    np.multiply(x, x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    poly *= x
    np.subtract(1.0, poly, out=x)  # erf(|x|)
    np.negative(x, out=x, where=negative)
    x += 1.0
    x *= 0.5
    return x


class FreqTable:
    """The maker of integer frequency tables: counts summing to
    FREQ_TOTAL, each count >= 1.

    A table is one row of cumulative counts, about 1 KB at 255 symbols:
    `cum[s]` and `cum[s + 1]` bound symbol s, and `cum[-1]` is
    FREQ_TOTAL.  The range coder reads the rows of one array by number.
    `batch` is the one place tables are made, so a wrapper around it
    (perfbench's tracer counts the rows) sees every table built.
    """

    @staticmethod
    def batch(counts):
        """Validated (N, S+1) int32 cumulative counts of an (N, S) count
        matrix, one table per row, all rows in single array passes."""
        counts = np.asarray(counts, dtype=np.int64)
        if np.any(counts < 1):
            raise ValueError("every count must be >= 1")
        if np.any(counts.sum(axis=1) != FREQ_TOTAL):
            raise ValueError(f"counts must sum to {FREQ_TOTAL}")
        # FREQ_TOTAL fits int32, which halves what a table holds.
        cums = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.int32)
        np.cumsum(counts, axis=1, out=cums[:, 1:])
        return cums


def unique_rows(a):
    """Distinct rows of a 2-D array, compared by their exact bytes.

    Returns (distinct, inverse) with a[i] == distinct[inverse[i]] byte
    for byte.  Rows that differ only in the sign of a zero, or in a NaN
    payload, count as distinct.
    """
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    return a[first], inverse.reshape(-1)


def discretize_batch(weights, means, sigmas, v):
    """Bin-integrated mixture probabilities for a batch of GMMs.

    weights/means/sigmas have shape (..., K); returns probabilities of
    shape (..., 2v+1) over symbols -v..v with tail mass folded into the
    boundary symbols.  Each distinct (mean, sigma) component is
    integrated once; a bin mass depends on nothing else.
    """
    weights, means, sigmas = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64) for a in (weights, means, sigmas)))
    *lead, k = means.shape
    n_symbols = 2 * v + 1
    pairs, inverse = unique_rows(
        np.stack([means.reshape(-1), sigmas.reshape(-1)], axis=1))
    masses = _bin_masses(pairs, v)  # (P, S)
    inverse = inverse.reshape(-1, k)
    weights = weights.reshape(-1, k)
    probs = np.empty((len(weights), n_symbols))
    rows = min(len(probs), _BLOCK_ROWS)
    gathered = np.empty((rows, k, n_symbols))
    per_comp = np.empty((rows, n_symbols, k))
    for start in range(0, len(probs), _BLOCK_ROWS):
        block = probs[start:start + _BLOCK_ROWS]
        b = len(block)
        np.take(masses, inverse[start:start + b], axis=0, out=gathered[:b],
                mode="clip")
        # (rows, S, K), the layout of a direct evaluation, so the mixing
        # sums every bin in the same order.
        np.copyto(per_comp[:b], gathered[:b].transpose(0, 2, 1))
        np.einsum("rk,rsk->rs", weights[start:start + b], per_comp[:b],
                  out=block)
        np.clip(block, 0.0, None, out=block)
        block /= block.sum(axis=1, keepdims=True)
    return probs.reshape(*lead, n_symbols)


def _bin_masses(pairs, v):
    """(P, 2v+1) unit-bin masses of the normals given as (mean, sigma) rows.

    Tail mass is folded into the boundary bins.
    """
    # Inner bin edges; the lowest bin reaches -inf and the highest +inf.
    edges = np.arange(-v, v, dtype=np.float64) + 0.5  # (S-1,)
    masses = np.empty((len(pairs), 2 * v + 1))
    cdf = np.empty((min(len(pairs), _BLOCK_ROWS), 2 * v))
    for start in range(0, len(pairs), _BLOCK_ROWS):
        pair = pairs[start:start + _BLOCK_ROWS]
        block = masses[start:start + len(pair)]
        z = cdf[:len(pair)]
        np.subtract(edges, pair[:, :1], out=z)
        z /= pair[:, 1:]
        _normal_cdf_in_place(z)
        block[:, -1] = 1.0
        block[:, :-1] = z
        block[:, 1:] -= z
    return masses


def quantize_probs(probs):
    """Largest-remainder quantization of probabilities to integer counts.

    Accepts shape (S,) or (N, S); returns int64 counts of the same shape
    summing to FREQ_TOTAL along the last axis, every count >= 1.  Ties
    are broken toward lower symbol indices, so the result is a pure
    function of the input floats.
    """
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    s = p.shape[1]
    if s > FREQ_TOTAL:
        raise ValueError("alphabet larger than frequency total")
    counts = np.empty(p.shape, dtype=np.int64)
    for start in range(0, len(p), _BLOCK_ROWS):
        largest_remainder(p[start:start + _BLOCK_ROWS] * FREQ_TOTAL,
                          FREQ_TOTAL, counts[start:start + _BLOCK_ROWS])
    return counts if np.asarray(probs).ndim > 1 else counts[0]


def largest_remainder(scaled, total, out):
    """Integer parts of each (N, S) row of shares `scaled`, summing to
    `total`, written into the int64 array `out`.

    Every part is the floor of its share, at least 1; the deficit goes
    one each to the largest remainders, ties toward lower index, and a
    surplus comes off the smallest remainders, ties toward higher index.
    ValueError if a row cannot keep every part at least 1.
    """
    s = scaled.shape[1]
    base = np.floor(scaled).astype(np.int64)
    counts = np.maximum(base, 1, out=out)
    remainder = scaled - base
    deficit = total - counts.sum(axis=1)
    grow = np.flatnonzero(deficit > 0)
    if grow.size:
        # One more to each of the `deficit` largest remainders, ties
        # toward lower index: everything above the deficit-th largest
        # value, then the first of the symbols tied at it.
        rem = remainder[grow]
        d = np.minimum(deficit[grow], s)
        cut = np.sort(rem, axis=1)[np.arange(grow.size), s - d][:, None]
        above = rem > cut
        tied = rem == cut
        fill = (d - above.sum(axis=1))[:, None]
        counts[grow] += above | (tied & (np.cumsum(tied, axis=1) <= fill))
    shrink = np.flatnonzero(deficit < 0)
    if shrink.size:
        # Remove surplus from shrinkable symbols, lowest remainder first,
        # ties toward higher index, one symbol per row and round.
        c = counts[shrink]
        need = -deficit[shrink]
        if np.any(c.sum(axis=1) - s < need):
            raise ValueError("cannot satisfy count floor")
        key = np.where(c > 1, remainder[shrink], np.inf)
        rows = np.arange(shrink.size)
        for _ in range(s):
            if not rows.size:
                break
            # argmin's first hit in reversed columns is the highest index.
            j = s - 1 - np.argmin(key[rows, ::-1], axis=1)
            take = np.minimum(c[rows, j] - 1, need[rows])
            c[rows, j] -= take
            need[rows] -= take
            key[rows, j] = np.inf
            rows = rows[need[rows] > 0]
        counts[shrink] = c


# The snapping grid of the local component.  The packet header's clamp
# field is int16, so CLAMP_MAX bounds every coded mean and sigma.
CLAMP_MAX = 32767
MU_STEPS = 8  # the mean snaps to the nearest 1/MU_STEPS
SIGMA_RATIO = 1.131


def _sigma_levels():
    """SIGMA_FLOOR times SIGMA_RATIO**i, by repeated float64 products,
    up to the first level >= CLAMP_MAX."""
    levels = [SIGMA_FLOOR]
    while levels[-1] < CLAMP_MAX:
        levels.append(levels[-1] * SIGMA_RATIO)
    return np.array(levels)


SIGMA_LEVELS = _sigma_levels()
# A sigma at or above the geometric midpoint of two neighbouring levels
# snaps to the upper one.  The square root is correctly rounded.
_SIGMA_CUTS = np.sqrt(SIGMA_LEVELS[:-1] * SIGMA_LEVELS[1:])
_MU_MAX = MU_STEPS * CLAMP_MAX
# Keys per channel: 0 for the prior, then one per (mean, sigma) index.
_CHANNEL_STRIDE = (2 * _MU_MAX + 1) * len(SIGMA_LEVELS) + 1


def snap(means, sigmas):
    """(mean index, sigma index) of local components on the grid.

    The snapped mean is mean_index / MU_STEPS, the snapped sigma
    SIGMA_LEVELS[sigma_index]; means beyond +-CLAMP_MAX are clipped.
    """
    mu = np.rint(np.multiply(means, MU_STEPS))
    np.clip(mu, -_MU_MAX, _MU_MAX, out=mu)
    return (mu.astype(np.int64),
            np.searchsorted(_SIGMA_CUTS, sigmas, side="right"))


def mixture_keys(output):
    """Table key of every symbol of a predictor output, position-major
    then channel: one (n*C,) int64 array.

    `output` has (n, C) local means and sigmas and (n,) bool
    `has_neighbors`; rows without a neighbour get their channel's prior
    key.
    """
    channels = output.means.shape[1]
    mu, sigma = snap(output.means, output.sigmas)
    local = (mu + _MU_MAX) * len(SIGMA_LEVELS) + sigma + 1
    local *= output.has_neighbors[:, None]
    local += np.arange(channels) * _CHANNEL_STRIDE
    return local.reshape(-1)


def key_mixtures(keys, prior):
    """(weights, means, sigmas), each (len(keys), 2), of the mixtures
    that the int64 `keys` stand for under `prior`.

    Component 0 is the snapped local component, or the channel's prior
    for neighbour class 0; component 1 is the channel's prior.  The
    weights are `prior.mixture_weights` of the key's neighbour class.
    """
    channel, rest = np.divmod(keys, _CHANNEL_STRIDE)
    local = rest > 0
    mu, sigma = np.divmod(rest[local] - 1, len(SIGMA_LEVELS))
    means = np.repeat(prior.means[channel][:, None], 2, axis=1)
    sigmas = np.repeat(prior.stds[channel][:, None], 2, axis=1)
    means[local, 0] = (mu - _MU_MAX) / MU_STEPS
    sigmas[local, 0] = SIGMA_LEVELS[sigma]
    return prior.mixture_weights[local.astype(np.intp)], means, sigmas

