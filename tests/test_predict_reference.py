"""Slice-local prediction against a full-grid scipy reference.

`predict` computes the window sums only at the positions it is given.
Each sum must equal, bit for bit, the zero-padded full-grid convolution
`scipy.ndimage.convolve(..., mode="constant", cval=0.0)` with the
integer kernel at that position, and every output array must equal the
full-grid predictor's at that position byte for byte.  The kernel's
weights are integers, so every sum is exact and scipy's order of
addition gives the same bytes as the predictor's tiled products.  The
reference below is that full-grid predictor, evaluated on the whole
grid and then indexed, with the pooled mixture weights that
`PriorModel.mixture_weights` must equal.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import convolve

from resicomp import predictor
from resicomp.density import SIGMA_FLOOR
from resicomp.predictor import (MIXTURES, PriorModel, _known_columns,
                                _softmax, _window_kernel, _window_sums,
                                predict)
from resicomp.token_codec import TokenGrid


def _reference(grid, prior):
    """Full-grid window sums and outputs, each (h, w, ...)."""
    h, w, channels = grid.values.shape
    kernel = _window_kernel(prior.window)
    known = grid.known.astype(np.float64)
    sum_w = convolve(known, kernel, mode="constant", cval=0.0)
    has_neighbors = sum_w > 0.0
    vals = grid.values.astype(np.float64) * known[:, :, None]
    safe_w = np.where(has_neighbors, sum_w, 1.0)[:, :, None]
    kernel3 = kernel[:, :, None]
    sv = convolve(vals, kernel3, mode="constant", cval=0.0)
    sv2 = convolve(vals * vals, kernel3, mode="constant", cval=0.0)
    local_mean = sv / safe_w
    local_var = np.maximum(sv2 / safe_w - local_mean * local_mean, 0.0)
    local_sigma = np.maximum(SIGMA_FLOOR, np.sqrt(local_var))
    prior_mean = np.broadcast_to(prior.means, (h, w, channels))
    prior_std = np.broadcast_to(prior.stds, (h, w, channels))
    neighbor_sel = has_neighbors[:, :, None]
    mean1 = np.where(neighbor_sel, local_mean, prior_mean)
    return {
        "sum_w": sum_w,
        "sv": sv,
        "sv2": sv2,
        "means": mean1,
        "sigmas": np.where(neighbor_sel, local_sigma, prior_std),
        "values": np.rint(mean1).astype(np.int16),
    }


def _reference_weights(prior):
    """(2, 2) pooled weights: row 0 without a window neighbor, row 1
    with one."""
    weights = np.stack([np.full(MIXTURES, 1.0 / MIXTURES),
                        _softmax(prior.logits)])
    # The trailing two components are the same prior Gaussian; pool
    # their weights by one addition.
    return np.concatenate(
        [weights[:, :1], weights[:, 1:2] + weights[:, 2:]], axis=-1)


def _assert_matches(grid, prior, positions):
    ref = _reference(grid, prior)
    out = predict(grid, prior, positions)
    positions = np.asarray(positions, dtype=np.intp).reshape(-1, 2)
    rows, cols = positions[:, 0], positions[:, 1]
    assert np.array_equal(out.positions, positions)
    window = prior.window
    sums = _window_sums(_known_columns(grid, True, window // 2), rows, cols,
                        window)
    channels = grid.channels
    for name, got in zip(("sum_w", "sv", "sv2"),
                         (sums[:, 0], sums[:, 1:channels + 1],
                          sums[:, channels + 1:])):
        got = np.ascontiguousarray(got)
        want = np.ascontiguousarray(ref[name][rows, cols])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    for name in ("means", "sigmas", "values"):
        got = getattr(out, name)
        want = np.ascontiguousarray(ref[name][rows, cols])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert np.array_equal(out.has_neighbors, ref["sum_w"][rows, cols] > 0.0)
    want = _reference_weights(prior)
    assert prior.mixture_weights.tobytes() == want.tobytes()


def _prior(channels, window, rng):
    return PriorModel(means=rng.normal(0.0, 20.0, channels),
                      stds=rng.uniform(SIGMA_FLOOR, 30.0, channels),
                      window=window, logits=rng.normal(0.0, 3.0, MIXTURES))


@st.composite
def _cases(draw):
    h = draw(st.integers(1, 14))
    w = draw(st.integers(1, 14))
    channels = draw(st.integers(1, 4))
    window = draw(st.sampled_from([1, 3, 5, 11]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Negative tokens at unknown positions give -0.0 products in the
    # reference's masked values.
    values = rng.integers(-127, 128, size=(h, w, channels))
    fill = draw(st.sampled_from(["none", "all", "random"]))
    if fill == "random":
        known = rng.random((h, w)) < rng.random()
    else:
        known = np.full((h, w), fill == "all")
    points = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    positions = draw(st.one_of(
        st.none(),
        st.lists(points, max_size=20),
        st.just([(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]),
    ))
    # One bound sets the tiles, and with them which points share a
    # product: 1 makes one product per point, 2**40 a single product.
    bound = draw(st.sampled_from([1, 2000, predictor._PRODUCT_ELEMENTS,
                                  1 << 40]))
    grid = TokenGrid(values, known)
    return grid, _prior(channels, window, rng), positions, bound


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_predict_equals_full_grid_reference(case):
    grid, prior, positions, bound = case
    if positions is None:
        positions = np.argwhere(~grid.known)
    with mock.patch.object(predictor, "_PRODUCT_ELEMENTS", bound):
        _assert_matches(grid, prior, positions)


@pytest.mark.parametrize("shape", [(1, 17), (17, 1), (1, 1), (40, 40)])
@pytest.mark.parametrize("window", [1, 3, 11])
def test_every_position_on_thin_and_large_grids(shape, window):
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + window)
    values = rng.integers(-127, 128, size=shape + (1,))
    grid = TokenGrid(values, rng.random(shape) < 0.5)
    positions = np.argwhere(np.ones(shape, dtype=bool))
    _assert_matches(grid, _prior(1, window, rng), positions)


def test_empty_position_list():
    rng = np.random.default_rng(0)
    grid = TokenGrid(rng.integers(-5, 5, size=(4, 5, 3)),
                     rng.random((4, 5)) < 0.5)
    for positions in ([], np.empty((0, 2), dtype=np.intp)):
        out = predict(grid, _prior(3, 3, rng), positions)
        assert out.positions.shape == (0, 2)
        assert out.means.shape == out.sigmas.shape == (0, 3)
        assert out.values.shape == (0, 3)
        assert out.values.dtype == np.int16


@pytest.mark.parametrize("position", [(-1, 0), (0, -1), (3, 0), (0, 4)])
def test_positions_off_the_grid_are_refused(position):
    grid = TokenGrid(np.zeros((3, 4, 2)), np.ones((3, 4)))
    prior = PriorModel(means=np.zeros(2), stds=np.ones(2))
    with pytest.raises(ValueError, match="on the grid"):
        predict(grid, prior, [(1, 1), position])


def test_default_positions_are_masked_row_major():
    known = np.array([[True, False, False], [False, True, False]])
    grid = TokenGrid(np.zeros((2, 3, 1)), known)
    out = predict(grid, PriorModel(means=np.zeros(1), stds=np.ones(1)))
    assert out.positions.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2]]
