import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp.density import (FREQ_TOTAL, SIGMA_FLOOR, FreqTable,
                              _normal_cdf_in_place, discretize_batch,
                              quantize_probs)


def _phi_exact(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_normal_cdf_matches_high_precision_oracle():
    xs = np.linspace(-6, 6, 241)
    approx = _normal_cdf_in_place(xs.copy())
    exact = np.array([_phi_exact(x) for x in xs])
    assert np.max(np.abs(approx - exact)) < 1.5e-7


def _table(counts):
    """The table of one row of counts."""
    return FreqTable.batch(np.asarray(counts)[None])[0]


def _single(mean, sigma, v=127):
    """Probabilities of one Gaussian over symbols -v..v (index v is 0)."""
    return discretize_batch([1.0], [mean], [sigma], v)


def test_discretize_center_bin():
    probs = _single(0.0, 0.5)
    expected = _phi_exact(1.0) - _phi_exact(-1.0)  # ~0.6827
    assert abs(probs[127] - expected) < 1e-6


def test_discretize_symmetry():
    probs = _single(0.0, 0.5)
    assert abs(probs[128] - probs[126]) < 1e-12


def test_tail_mass_folds_into_boundary():
    assert _single(1270.0, 0.5)[-1] > 0.999999


def test_normalization_over_random_mixtures(rng):
    n = 10_000
    w = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    mu = rng.uniform(-200, 200, size=(n, 3))
    sg = rng.uniform(SIGMA_FLOOR, 50.0, size=(n, 3))
    probs = discretize_batch(w, mu, sg, 127)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(probs >= 0.0)


def test_mean_shift_moves_argmax():
    for mu in (-3.0, 0.0, 5.0):
        a = _single(mu, 0.2)
        b = _single(mu + 1.0, 0.2)
        assert np.argmax(b) == np.argmax(a) + 1


def test_uniform_freq_table():
    table = _table(quantize_probs(np.full(256, 1.0 / 256)))
    assert np.all(np.diff(table.cum) == 256)


def test_zero_probability_symbol_gets_floor_count():
    probs = np.array([0.5, 0.5, 0.0])
    table = _table(quantize_probs(probs))
    counts = np.diff(table.cum)
    assert counts[2] == 1
    assert counts.sum() == FREQ_TOTAL


def _quantize_reference(probs):
    """Slow, obviously-correct largest-remainder with floor 1."""
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=40))
def test_quantize_matches_reference(raw):
    total = sum(raw)
    if total <= 0.0:
        probs = np.full(len(raw), 1.0 / len(raw))
    else:
        probs = np.array(raw) / total
    assert quantize_probs(probs).tolist() == _quantize_reference(probs)


def test_quantize_batch_rows_independent(rng):
    probs = rng.dirichlet(np.ones(255), size=64)
    batch = quantize_probs(probs)
    for row_in, row_out in zip(probs, batch):
        assert np.array_equal(quantize_probs(row_in), row_out)


def test_freq_table_batch_equals_scalar_construction(rng):
    counts = quantize_probs(rng.dirichlet(np.ones(255), size=16))
    for a, b in zip(FreqTable.batch(counts), [_table(c) for c in counts]):
        assert np.array_equal(np.diff(a.cum), np.diff(b.cum))
        assert a.cum[100:102].tolist() == b.cum[100:102].tolist()


def test_freq_table_lookup():
    counts = np.array([13107, 19661, FREQ_TOTAL - 13107 - 19661],
                      dtype=np.int64)
    table = _table(counts)
    assert table.cum[0:2].tolist() == [0, 13107]
    assert table.cum[1:3].tolist() == [13107, 13107 + 19661]
    assert bisect_right(table.cum, 0) - 1 == 0
    assert bisect_right(table.cum, 13107) - 1 == 1
    assert bisect_right(table.cum, FREQ_TOTAL - 1) - 1 == 2


def test_freq_table_rejects_bad_counts():
    with pytest.raises(ValueError):
        _table([0, FREQ_TOTAL])
    with pytest.raises(ValueError):
        _table([1, 2, 3])


def test_quantized_counts_approximate_probs(rng):
    probs = rng.dirichlet(np.ones(255))
    counts = quantize_probs(probs)
    err = np.abs(counts / FREQ_TOTAL - probs)
    # Rounding costs up to 2/total; every floored-to-1 symbol can push
    # its surplus onto one shrinkable symbol in the worst case.
    floored = int(np.sum(np.floor(probs * FREQ_TOTAL) < 1))
    assert err.max() <= (2.0 + floored) / FREQ_TOTAL + 1e-12
