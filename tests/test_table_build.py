"""The shared-table builder against a per-row reference.

`pipeline.TableStore` builds one frequency table per distinct key, and
`discretize_batch` integrates each distinct component once.  Both must
give, for every symbol, exactly the counts that integrating and
quantizing that symbol's (snapped) row alone gives.  The reference below is
the direct evaluation: every component of every row integrated over
all bins with the pinned CDF written as one expression, then
largest-remainder quantization by a full sort.
"""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp import density
from resicomp.density import (FREQ_TOTAL, SIGMA_FLOOR, SIGMA_LEVELS,
                              FreqTable, _normal_cdf_in_place,
                              discretize_batch, quantize_probs, unique_rows)
from resicomp.pipeline import TableStore
from resicomp.predictor import default_prior, predict
from resicomp.token_codec import TokenGrid


def _normal_cdf(x):
    """The pinned CDF as one out-of-place expression, in its fixed order."""
    x = np.asarray(x, dtype=np.float64) * density._SQRT1_2
    sign = np.where(x < 0.0, -1.0, 1.0)
    ax = np.abs(x)
    t = 1.0 / (1.0 + density._AS_P * ax)
    poly = ((((density._AS_A5 * t + density._AS_A4) * t + density._AS_A3) * t
             + density._AS_A2) * t + density._AS_A1) * t
    return 0.5 * (1.0 + sign * (1.0 - poly * np.exp(-ax * ax)))


def _discretize_row(weights, means, sigmas, v):
    """One row: (K,) parameters -> (2v+1,) probabilities, direct form."""
    weights, means, sigmas = (np.asarray(a, dtype=np.float64)[None]
                              for a in (weights, means, sigmas))
    edges = np.arange(-v, v + 1, dtype=np.float64) + 0.5
    cdf = _normal_cdf((edges[:, None] - means[..., None, :])
                      / sigmas[..., None, :])
    upper = np.concatenate([cdf[..., :-1, :], np.ones_like(cdf[..., :1, :])],
                           axis=-2)
    lower = np.concatenate([np.zeros_like(cdf[..., :1, :]),
                            cdf[..., :-1, :]], axis=-2)
    probs = np.einsum("...k,...sk->...s", weights, upper - lower)
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs[0]


def _quantize_row(probs):
    """Largest remainder with floor 1, ties toward lower index."""
    scaled = [p * FREQ_TOTAL for p in probs]
    base = [math.floor(x) for x in scaled]
    counts = [max(b, 1) for b in base]
    rem = [x - b for x, b in zip(scaled, base)]
    order = sorted(range(len(probs)), key=lambda i: (-rem[i], i))
    deficit = FREQ_TOTAL - sum(counts)
    if deficit > 0:
        for i in order[:deficit]:
            counts[i] += 1
    else:
        need = -deficit
        for i in reversed(order):
            take = min(counts[i] - 1, need)
            counts[i] -= take
            need -= take
            if need == 0:
                break
    return counts


_MEANS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 127.0]),
                   st.floats(min_value=-160.0, max_value=160.0))
_SIGMAS = st.one_of(st.just(SIGMA_FLOOR),
                    st.floats(min_value=SIGMA_FLOOR, max_value=60.0))


@st.composite
def _mixture_rows(draw, k):
    """(weights, means, sigmas) rows of shape (n, k) with repeated rows."""
    distinct = draw(st.integers(min_value=1, max_value=6))
    weights, means, sigmas = [], [], []
    for _ in range(distinct):
        if draw(st.booleans()):
            w = [0.0] * k  # collapsed onto a single component
            w[draw(st.integers(min_value=0, max_value=k - 1))] = 1.0
        else:
            w = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                              min_size=k, max_size=k))
            w = [x / sum(w) for x in w]
        weights.append(w)
        means.append(draw(st.lists(_MEANS, min_size=k, max_size=k)))
        sigmas.append(draw(st.lists(_SIGMAS, min_size=k, max_size=k)))
    if k == 3 and draw(st.booleans()):
        # Two trailing copies of one Gaussian, integrated once.
        for m, s in zip(means, sigmas):
            m[2], s[2] = m[1], s[1]
    pick = draw(st.lists(st.integers(min_value=0, max_value=distinct - 1),
                         min_size=1, max_size=30))
    return tuple(np.array(a, dtype=np.float64)[pick]
                 for a in (weights, means, sigmas))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(_mixture_rows),
       st.sampled_from([1, 5, 127]))
def test_batch_counts_equal_per_row_reference(rows, v):
    weights, means, sigmas = rows
    probs = discretize_batch(weights, means, sigmas, v)
    counts = quantize_probs(probs)
    for i in range(len(weights)):
        ref = _discretize_row(weights[i], means[i], sigmas[i], v)
        assert np.array_equal(probs[i], ref)
        assert counts[i].tolist() == _quantize_row(ref)


def test_normal_cdf_equals_direct_expression():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0.0, 4.0, 500), [0.0, -0.0, 1e-300,
                                                     -40.0, 40.0]])
    assert _normal_cdf_in_place(x.copy()).tobytes() == \
        _normal_cdf(x).tobytes()


def test_blocked_build_equals_per_row_reference_across_blocks():
    """Several row blocks, a short last block, shared and distinct rows."""
    rng = np.random.default_rng(11)
    n = 2 * density._BLOCK_ROWS + 7
    weights = rng.dirichlet(np.ones(3), size=n)
    weights[::5] = [1.0, 0.0, 0.0]
    means = rng.uniform(-130.0, 130.0, size=(n, 3))
    means[::3, 0] = rng.choice([0.0, -0.0, 0.5], size=len(means[::3]))
    means[:, 2] = means[:, 1] = rng.choice([-3.0, 0.0, 2.5], size=n)
    sigmas = rng.uniform(SIGMA_FLOOR, 40.0, size=(n, 3))
    sigmas[::4, 0] = SIGMA_FLOOR
    sigmas[:, 2] = sigmas[:, 1]
    weights[n // 2:n // 2 + 9] = weights[3]
    means[n // 2:n // 2 + 9] = means[3]
    sigmas[n // 2:n // 2 + 9] = sigmas[3]
    probs = discretize_batch(weights, means, sigmas, 127)
    counts = quantize_probs(probs)
    assert probs.shape == counts.shape == (n, 255)
    for i in range(n):
        ref = _discretize_row(weights[i], means[i], sigmas[i], 127)
        assert probs[i].tobytes() == ref.tobytes()
        assert counts[i].tolist() == _quantize_row(ref)


def _snapped_row(output, prior, j, c):
    """Symbol (j, c)'s mixture of its local estimate and the prior, with
    the local component on the grid, found by nearest level in log space
    rather than by midpoints."""
    mean, sigma = output.means[j, c], output.sigmas[j, c]
    if output.has_neighbors[j]:
        mean = np.rint(mean * 8) / 8
        sigma = SIGMA_LEVELS[np.argmin(np.abs(np.log(sigma / SIGMA_LEVELS)))]
    weights = prior.mixture_weights[int(output.has_neighbors[j])]
    return (weights, np.array([mean, prior.means[c]]),
            np.array([sigma, prior.stds[c]]))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, 3, 127]),
       st.integers(min_value=1, max_value=3))
def test_store_tables_equal_per_row_reference(data, clamp, channels):
    h, w = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    values = np.array(data.draw(st.lists(
        st.integers(-clamp, clamp), min_size=h * w * channels,
        max_size=h * w * channels))).reshape(h, w, channels)
    known = np.array(data.draw(st.lists(st.booleans(), min_size=h * w,
                                        max_size=h * w))).reshape(h, w)
    grid = TokenGrid(values.astype(np.int16), known)
    prior = default_prior(channels, clamp)
    output = predict(grid, prior, np.argwhere(np.ones((h, w), bool)))
    store = TableStore(prior, clamp)
    cum, rows = store.tables(output)
    assert len(rows) == h * w * channels
    assert len(set(rows.tolist())) == len(store) == len(cum)
    for j in range(h * w):
        for c in range(channels):
            ref = _discretize_row(*_snapped_row(output, prior, j, c), clamp)
            assert np.diff(cum[rows[j * channels + c]]).tolist() == \
                _quantize_row(ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unique_rows_compare_exact_bytes(data):
    values = st.sampled_from([0.0, -0.0, 1.0, 0.5, SIGMA_FLOOR])
    a = np.array(data.draw(st.lists(st.lists(values, min_size=2, max_size=2),
                                    min_size=1, max_size=20)))
    distinct, inverse = unique_rows(a)
    assert distinct[inverse].tobytes() == a.tobytes()
    assert len({row.tobytes() for row in a}) == len(distinct)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_freq_table_lookup_matches_searchsorted(data):
    # The decoder's lookup: bisect_right over one row of the flat
    # cumulative array, whose items must be Python ints so the coder's
    # arithmetic stays in plain Python.
    size = data.draw(st.integers(min_value=1, max_value=300))
    raw = data.draw(st.lists(st.integers(min_value=0, max_value=5000),
                             min_size=size, max_size=size))
    probs = np.array(raw, dtype=np.float64) + 1e-3
    counts = quantize_probs(probs / probs.sum())
    cum = np.concatenate(([0], np.cumsum(counts)))
    values = data.draw(st.lists(st.integers(min_value=0,
                                            max_value=FREQ_TOTAL - 1),
                                min_size=1, max_size=50))
    values += [0, FREQ_TOTAL - 1] + cum[1:-1].tolist()[:20]
    tables = FreqTable.batch(np.stack([counts, counts]))
    width = tables.shape[1]
    flat = memoryview(tables.reshape(-1))
    for start in (0, width):
        for value in values:
            expected = int(np.searchsorted(cum, value, side="right")) - 1
            found = bisect_right(flat, value, start, start + width) - 1 - start
            assert found == expected
            low, high = flat[start + found], flat[start + found + 1]
            assert (low, high) == (cum[found], cum[found + 1])
            assert type(low) is int and type(high) is int
            assert low <= value < high
