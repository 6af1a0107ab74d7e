import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp.context_modes import (MODE_CUSTOM, MODE_ISC, MODE_LC, MODE_MDC,
                                    MODE_SLC, ContextMode, Violation,
                                    context_depths, iteration_schedule,
                                    make_mode, validate)


def _closure(g):
    g = g.astype(bool).copy()
    l = g.shape[0]
    for k in range(l):
        for i in range(l):
            if g[i, k]:
                g[i] |= g[k]
    return g


def test_lc_matrix():
    mode = make_mode("LC", 3)
    expected = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=bool)
    assert np.array_equal(mode.g, expected)


def test_isc_matrix_is_zero():
    for l in (1, 5, 16):
        assert not make_mode("ISC", l).g.any()


def test_mdc_two_descriptions():
    mode = make_mode("MDC", 4, {"n_d": 2})
    expected = np.zeros((4, 4), dtype=bool)
    expected[2, 0] = True  # slice 3 conditions on slice 1
    expected[3, 1] = True  # slice 4 conditions on slice 2
    assert np.array_equal(mode.g, expected)


def test_validate_accepts_lc():
    g = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=bool)
    assert validate(ContextMode(l=3, g=g, mode_id=MODE_CUSTOM)) is None


def test_validate_rejects_upper_triangle():
    g = np.zeros((3, 3), dtype=bool)
    g[0, 1] = True
    report = validate(ContextMode(l=3, g=g, mode_id=MODE_CUSTOM))
    assert report.kind == "recoverability"
    assert report.where == (1, 2)


def test_validate_rejects_missing_inheritance():
    g = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=bool)
    report = validate(ContextMode(l=3, g=g, mode_id=MODE_CUSTOM))
    assert report.kind == "inheritance"
    assert report.where == (3, 2, 1)


def test_context_counts_presets():
    assert make_mode("LC", 4).context_counts() == [0, 1, 2, 3]
    assert make_mode("ISC", 4).context_counts() == [0, 0, 0, 0]
    assert make_mode("MDC", 10, {"n_d": 2}).context_counts() == \
        [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_iteration_counts_match_closed_forms():
    assert iteration_schedule(make_mode("LC", 10))[1] == 9
    assert iteration_schedule(make_mode("ISC", 23))[1] == 0
    assert iteration_schedule(make_mode("MDC", 10, {"n_d": 2}))[1] == 4


def test_presets_validate_exhaustively():
    for l in range(1, 33):
        assert validate(make_mode("ISC", l)) is None
        assert validate(make_mode("LC", l)) is None
        for n_d in (2, 4, 5):
            if n_d <= l:
                assert validate(make_mode("MDC", l, {"n_d": n_d})) is None
        for e in (1, 2, 3):
            if l >= 2:
                assert validate(make_mode("SLC", l, {"enhancements": e})) is None


def test_matrices_are_transitively_closed():
    for mode in (make_mode("LC", 12), make_mode("MDC", 13, {"n_d": 4}),
                 make_mode("SLC", 11, {"enhancements": 2})):
        assert np.array_equal(mode.g, _closure(mode.g))


def test_schedule_respects_dependencies():
    for mode in (make_mode("LC", 8), make_mode("MDC", 9, {"n_d": 2}),
                 make_mode("SLC", 9, {"enhancements": 3})):
        groups, k_t = iteration_schedule(mode)
        pass_of = {}
        for d, group in enumerate(groups):
            for i in group:
                pass_of[i] = d
        for i in range(1, mode.l + 1):
            for j in mode.contexts_of(i):
                assert pass_of[j] < pass_of[i]
        assert k_t == len(groups) - 1


def test_slc_base_and_branches():
    mode = make_mode("SLC", 5, {"enhancements": 2})
    # slice 1 is the base; every other slice conditions on it
    assert not mode.g[0].any()
    assert all(mode.g[i, 0] for i in range(1, 5))
    # branches: slices 2,4 chain together and 3,5 chain together
    assert mode.contexts_of(4) == (1, 2)
    assert mode.contexts_of(5) == (1, 3)


def test_context_depths():
    assert context_depths(make_mode("LC", 4)) == [0, 1, 2, 3]
    assert context_depths(make_mode("ISC", 4)) == [0, 0, 0, 0]
    assert context_depths(make_mode("MDC", 5, {"n_d": 2})) == [0, 0, 1, 1, 1]


def test_mode_id_registry():
    assert (MODE_ISC, MODE_LC, MODE_MDC, MODE_SLC, MODE_CUSTOM) == \
        (0, 1, 2, 3, 255)
    assert make_mode("ISC", 2).mode_id == 0
    assert make_mode("LC", 2).mode_id == 1
    assert make_mode("MDC", 2, {"n_d": 2}).mode_id == 2
    assert make_mode("SLC", 2, {"enhancements": 1}).mode_id == 3


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_mode("MDC", 4, {})
    with pytest.raises(ValueError):
        make_mode("MDC", 4, {"n_d": 5})
    with pytest.raises(ValueError):
        make_mode("SLC", 4, {"enhancements": 0})
    with pytest.raises(ValueError):
        make_mode("XYZ", 4)
    with pytest.raises(ValueError, match="unknown mode kind 'CUSTOM'"):
        make_mode("CUSTOM", 4)


def test_custom_matrix_accepted_when_valid():
    # Custom matrices are built by hand; make_mode builds presets only.
    g = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=bool)
    mode = ContextMode(l=3, g=g, mode_id=MODE_CUSTOM)
    assert validate(mode) is None
    assert mode.contexts_of(3) == (1,)


def _validate_by_loops(mode):
    """The first violation in the order of the defining triple loop."""
    g = mode.g
    l = mode.l
    for i in range(l):
        for k in range(i, l):
            if g[i, k]:
                return Violation("recoverability", (i + 1, k + 1))
    for i in range(l):
        for k in range(i):
            if not g[i, k]:
                continue
            for j in range(k):
                if g[k, j] and not g[i, j]:
                    return Violation("inheritance", (i + 1, k + 1, j + 1))
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda l: st.tuples(st.just(l), st.lists(st.booleans(), min_size=l * l,
                                             max_size=l * l))),
    st.booleans())
def test_validate_equals_triple_loop(case, lower_only):
    l, bits = case
    g = np.array(bits, dtype=bool).reshape(l, l)
    if lower_only:
        # Mostly inheritance violations, and valid modes now and then.
        g = np.tril(g, k=-1)
    mode = ContextMode(l=l, g=g, mode_id=MODE_CUSTOM)
    assert validate(mode) == _validate_by_loops(mode)


def _validate_by_boolean_product(mode):
    """`validate` as it was written first: a boolean matrix product."""
    g = mode.g
    upper = np.argwhere(np.triu(g))
    if len(upper):
        return Violation("recoverability", tuple(int(x) + 1 for x in upper[0]))
    rows = np.flatnonzero(((g @ g) & ~g).any(axis=1))
    if len(rows):
        i = int(rows[0])
        k, j = np.argwhere(g[i][:, None] & g & ~g[i])[0]
        return Violation("inheritance", (i + 1, int(k) + 1, int(j) + 1))
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.booleans(), st.integers(0, 3))
def test_validate_equals_boolean_product(l, seed, density, closed, flips):
    rng = np.random.default_rng(seed)
    g = np.tril(rng.random((l, l)) < density, k=-1)
    if closed:
        g = _closure(g)  # valid until an entry is flipped
    if l > 1:
        for _ in range(flips):
            i = int(rng.integers(1, l))
            g[i, int(rng.integers(0, i))] ^= True
    mode = ContextMode(l=l, g=g, mode_id=MODE_CUSTOM)
    want = _validate_by_boolean_product(mode)
    assert validate(mode) == want
    if closed and not flips:
        assert want is None
