
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from resicomp.context_modes import make_mode
from resicomp.partition import (SlicePlan, build_plan, qlds_positions,
                                slice_sizes)


def test_tiny_grid_is_permutation():
    for seed in range(20):
        pos = qlds_positions(2, 2, seed)
        assert sorted(pos) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_qlds_deterministic():
    assert qlds_positions(9, 13, 42) == qlds_positions(9, 13, 42)


def test_qlds_prefix_is_spread_out(rng):
    # Min pairwise distance of a QLDS prefix beats the median of
    # uniform-random subsets of the same size.
    pts = np.array(qlds_positions(32, 32, 0)[:102])
    qlds_min = pdist(pts).min()
    cells = np.array([(r, c) for r in range(32) for c in range(32)])
    random_mins = [
        pdist(cells[rng.choice(1024, 102, replace=False)]).min()
        for _ in range(1000)
    ]
    assert qlds_min > np.median(random_mins)


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_qlds_always_permutes(h, w, seed):
    pos = qlds_positions(h, w, seed)
    assert len(set(pos)) == h * w


def test_uniform_sizes_when_beta_zero():
    assert slice_sizes(100, 10, [0] * 10, 0.0) == [10] * 10


def test_power_schedule_hand_example():
    assert slice_sizes(100, 4, [0, 1, 2, 3], 1.0) == [18, 23, 27, 32]


def test_lc_schedule_sizes_grow():
    mode = make_mode("LC", 10)
    sizes = slice_sizes(100, 10, mode.context_counts(), 1.0)
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sum(sizes) == 100


def test_too_few_tokens_rejected():
    with pytest.raises(ValueError):
        slice_sizes(3, 4, [0, 0, 0, 0], 0.0)


@settings(max_examples=100, deadline=None)
@given(
    l=st.integers(min_value=1, max_value=12),
    extra=st.integers(min_value=0, max_value=300),
    beta=st.floats(min_value=0.0, max_value=2.0),
    data=st.data(),
)
def test_slice_sizes_invariants(l, extra, beta, data):
    n = l + extra
    counts = data.draw(
        st.lists(st.integers(min_value=0, max_value=l - 1),
                 min_size=l, max_size=l)
    )
    sizes = slice_sizes(n, l, counts, beta)
    assert sum(sizes) == n
    assert min(sizes) >= 1
    # Scale consistency: doubling N doubles sizes, with a small envelope
    # for remainder-rank flips between the two scales.
    doubled = slice_sizes(2 * n, l, counts, beta)
    assert max(abs(d - 2 * s) for d, s in zip(doubled, sizes)) <= 3


def _slice_sizes_by_loop(n, l, context_counts, beta):
    """slice_sizes as a per-slice loop: floor at 1, grow the largest
    remainders (ties toward lower index), shrink the smallest (ties
    toward higher index)."""
    weights = np.array([(1.0 + c / l) ** beta for c in context_counts])
    quotas = n * weights / weights.sum()
    base = np.floor(quotas).astype(np.int64)
    sizes = np.maximum(base, 1)
    remainder = quotas - base
    order = np.lexsort((np.arange(l), -remainder))
    deficit = n - int(sizes.sum())
    if deficit > 0:
        for idx in order[:deficit]:
            sizes[idx] += 1
    elif deficit < 0:
        for idx in order[::-1]:
            if deficit == 0:
                break
            take = min(int(sizes[idx]) - 1, -deficit)
            sizes[idx] -= take
            deficit += take
    return [int(s) for s in sizes]


_PRESETS = (("LC", {}), ("ISC", {}), ("MDC", {"n_d": 1}),
            ("SLC", {"enhancements": 1}))


@settings(max_examples=300, deadline=None)
@given(
    l=st.integers(min_value=1, max_value=40),
    extra=st.one_of(st.integers(0, 40), st.integers(0, 70_000)),
    beta=st.floats(min_value=0.0, max_value=65.535),
    data=st.data(),
)
def test_slice_sizes_equal_the_loop(l, extra, beta, data):
    counts = data.draw(st.one_of(
        st.lists(st.integers(0, l - 1), min_size=l, max_size=l),
        st.sampled_from([make_mode(kind, l, params).context_counts()
                         for kind, params in _PRESETS
                         if kind != "SLC" or l >= 2]),
    ))
    n = l + extra
    assert slice_sizes(n, l, counts, beta) == \
        _slice_sizes_by_loop(n, l, counts, beta)


def test_doubling_tight_on_hand_examples():
    for n, l, counts, beta in [(100, 10, [0] * 10, 0.0),
                               (100, 4, [0, 1, 2, 3], 1.0)]:
        s1 = slice_sizes(n, l, counts, beta)
        s2 = slice_sizes(2 * n, l, counts, beta)
        assert max(abs(d - 2 * s) for d, s in zip(s2, s1)) <= 1


def test_build_plan_default_configuration():
    mode = make_mode("LC", 10)
    plan = build_plan(32, 48, 10, mode, seed=0)
    seen = set()
    for i in range(1, 11):
        part = plan.slice_positions(i)
        assert not (seen & set(part))
        seen |= set(part)
    assert len(seen) == 32 * 48


def test_single_token_slices():
    mode = make_mode("ISC", 9)
    plan = build_plan(3, 3, 9, mode, seed=5)
    assert all(len(plan.slice_positions(i)) == 1 for i in range(1, 10))


def test_seed_changes_positions_not_boundaries():
    mode = make_mode("LC", 6)
    a = build_plan(8, 8, 6, mode, seed=1)
    b = build_plan(8, 8, 6, mode, seed=2)
    assert a.positions != b.positions
    assert a.boundaries == b.boundaries


def test_equal_inputs_build_equal_plans():
    mode = make_mode("LC", 4)
    a = build_plan(6, 7, 4, mode, seed=9)
    assert a == build_plan(6, 7, 4, mode, seed=9)
    assert (a.h, a.w, a.l, a.seed, a.beta) == (6, 7, 4, 9, 1.0)
    assert a != build_plan(6, 7, 4, mode, seed=10)


def test_mode_default_beta_used():
    plan = build_plan(6, 7, 4, make_mode("ISC", 4), seed=0)
    assert plan.beta == 0.0
    plan = build_plan(6, 7, 4, make_mode("MDC", 4, {"n_d": 2}), seed=0)
    assert plan.beta == 0.5


def test_more_slices_than_tokens_rejected():
    with pytest.raises(ValueError):
        build_plan(2, 2, 5, make_mode("ISC", 5), seed=0)


def test_plan_validation():
    with pytest.raises(ValueError):
        SlicePlan(h=2, w=2, l=2, seed=0, beta=0.0,
                  positions=((0, 0),), boundaries=(0, 2, 4))
    with pytest.raises(ValueError):
        SlicePlan(h=1, w=2, l=2, seed=0, beta=0.0,
                  positions=((0, 0), (0, 1)), boundaries=(0, 0, 2))
