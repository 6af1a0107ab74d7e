import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resicomp import predictor
from resicomp.context_modes import (MODE_CUSTOM, ContextMode, make_mode,
                                    validate)
from resicomp.density import SIGMA_FLOOR, mixture_keys
from resicomp.partition import build_plan
from resicomp.pipeline import TableStore
from resicomp.predictor import (DEFAULT_LOGITS, DEFAULT_WINDOW, MAX_WINDOW,
                                MODEL_MAGIC, PriorModel, RunningSums,
                                _known_columns, _window_kernel, _window_sums,
                                collect_context, conceal, default_prior,
                                fit_prior, load_prior, predict, save_prior)
from resicomp.token_codec import CodecConfig, TokenGrid, analyze


def _grid(values, known):
    return TokenGrid(np.asarray(values, np.int16), np.asarray(known, bool))


def _full_grid(h, w, c, fill=0):
    return _grid(np.full((h, w, c), fill), np.ones((h, w)))


def test_collect_context_isc_never_errors():
    mode = make_mode("ISC", 4)
    plan = build_plan(2, 2, 4, mode, seed=0)
    grid = _full_grid(2, 2, 8, fill=5)
    ctx = collect_context([1], mode, plan, grid)
    assert ctx.positions.tolist() == [list(p) for p in plan.slice_positions(1)]
    assert not ctx.sees.any()
    assert not predict(ctx, default_prior(8)).has_neighbors.any()


def test_collect_context_lc_fills_earlier_slices():
    mode = make_mode("LC", 4)
    plan = build_plan(2, 2, 4, mode, seed=0)
    grid = _full_grid(2, 2, 8, fill=5)
    ctx = collect_context([3], mode, plan, grid)
    filled = {tuple(p) for p in np.argwhere(ctx.sees[3][ctx.owner])}
    expected = set(plan.slice_positions(1)) | set(plan.slice_positions(2))
    assert filled == expected
    out = predict(ctx, default_prior(8))
    assert out.has_neighbors.all() and np.all(out.values == 5)


def _collect_context_by_positions(index, mode, plan, grid):
    """Copy the context slices one position at a time: the grid masked to
    slice `index`'s context, the per-slice oracle of `collect_context`."""
    ctx = TokenGrid(np.zeros_like(grid.values), np.zeros((grid.h, grid.w), bool))
    for j in mode.contexts_of(index):
        for r, c in plan.slice_positions(j):
            ctx.values[r, c] = grid.values[r, c]
            ctx.known[r, c] = True
    return ctx


@st.composite
def _context_cases(draw):
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    l = draw(st.integers(1, min(h * w, 9)))
    kind, params = draw(st.sampled_from(
        [("ISC", {}), ("LC", {})]
        + [("MDC", {"n_d": n}) for n in range(1, l + 1)]
        + ([("SLC", {"enhancements": e}) for e in (1, 2, 3)] if l > 1
           else [])))
    mode = make_mode(kind, l, params)
    plan = build_plan(h, w, l, mode, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.integers(1, 3))
    grid = _grid(rng.integers(-127, 128, size=(h, w, channels)),
                 rng.random((h, w)) < 0.5)
    return mode, plan, grid


@settings(max_examples=150, deadline=None)
@given(_context_cases(), st.data())
def test_collect_context_equals_per_position_copy(case, data):
    mode, plan, grid = case
    slices = data.draw(st.permutations(range(1, mode.l + 1)))
    ctx = collect_context(slices, mode, plan, grid)
    # No copy: the context reads the grid itself, and each point's slice
    # sees exactly the positions the per-position copy marks known.
    assert ctx.grid is grid
    assert ctx.positions.dtype == np.intp
    assert ctx.positions.tolist() == [
        list(p) for i in slices for p in plan.slice_positions(i)]
    assert not ctx.sees[0].any() and not ctx.sees[:, 0].any()
    for i in slices:
        want = _collect_context_by_positions(i, mode, plan, grid)
        assert ctx.sees[i][ctx.owner].tobytes() == want.known.tobytes()


def _closed_mode(l, rng):
    """A valid custom mode: a random strictly lower triangular matrix,
    transitively closed."""
    g = np.tril(rng.random((l, l)) < 0.4, k=-1)
    for _ in range(l):
        g = g | (g.astype(np.intp) @ g.astype(np.intp) > 0)
    mode = ContextMode(l=l, g=g, mode_id=MODE_CUSTOM)
    assert validate(mode) is None
    return mode


_ONE_PASS_MODES = [("ISC", {}), ("LC", {}), ("MDC", {"n_d": 2}),
                   ("SLC", {"enhancements": 1}), ("custom", {})]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(_ONE_PASS_MODES), l=st.integers(2, 9),
       h=st.integers(1, 14), w=st.integers(1, 14),
       window=st.sampled_from([1, 3, 11]), channels=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       arrived=st.none() | st.lists(st.booleans(), min_size=9, max_size=9),
       bound=st.sampled_from([0, 2000, 1 << 40]))
# A receiver grid of MDC:2 where slices 1 and 2 are decoded: slice 3's
# context is slice 1 alone, so slice 2's known tokens in its window
# must not count.  The window sums make one product per point (bound
# 0), or one product of every point (bound 2**40).
@example(kind=("MDC", {"n_d": 2}), l=6, h=4, w=4, window=11, channels=2,
         seed=0, arrived=[True, True] + [False] * 7, bound=0)
@example(kind=("MDC", {"n_d": 2}), l=6, h=4, w=4, window=11, channels=2,
         seed=0, arrived=[True, True] + [False] * 7, bound=1 << 40)
def test_one_pass_model_equals_a_masked_copy_per_slice(
        kind, l, h, w, window, channels, seed, arrived, bound):
    assume(l <= h * w)
    with mock.patch.object(predictor, "_PRODUCT_ELEMENTS", bound):
        _check_one_pass_model(kind, l, h, w, window, channels, seed, arrived)


def _check_one_pass_model(kind, l, h, w, window, channels, seed, arrived):
    rng = np.random.default_rng(seed)
    name, params = kind
    mode = (_closed_mode(l, rng) if name == "custom"
            else make_mode(name, l, params))
    plan = build_plan(h, w, l, mode, seed=seed % 997)
    # The sender holds every slice (`arrived` None); a receiver holds the
    # slices decoded from the arrived ones, in ascending order.
    decoded = set()
    for i in range(1, l + 1):
        if (arrived is None or arrived[i - 1]) and decoded.issuperset(
                mode.contexts_of(i)):
            decoded.add(i)
    grid = _grid(rng.integers(-40, 41, size=(h, w, channels)),
                 np.isin(plan.owner, list(decoded)))
    prior = PriorModel(means=rng.normal(0.0, 10.0, channels),
                       stds=rng.uniform(SIGMA_FLOOR, 30.0, channels),
                       window=window)
    # Every slice whose context is held, in a random order.
    slices = [int(i) for i in rng.permutation(np.arange(1, l + 1))
              if decoded.issuperset(mode.contexts_of(int(i)))]
    out = predict(collect_context(slices, mode, plan, grid), prior)
    cum, rows = TableStore(prior, 127).tables(out)
    lo = 0
    for i in slices:
        positions = plan.slice_positions(i)
        hi = lo + len(positions)
        want = predict(_collect_context_by_positions(i, mode, plan, grid),
                       prior, positions)
        for field in ("positions", "means", "sigmas", "values",
                      "has_neighbors"):
            got, ref = getattr(out, field)[lo:hi], getattr(want, field)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        want_cum, want_rows = TableStore(prior, 127).tables(want)
        assert (cum[rows[lo * channels:hi * channels]].tobytes()
                == want_cum[want_rows].tobytes())
        lo = hi
    assert lo == len(out.positions)


def test_constant_neighborhood_predicts_constant():
    known = np.ones((5, 5), bool)
    known[2, 2] = False
    values = np.full((5, 5, 4), 17, np.int16)
    values[2, 2] = 0
    out = predict(_grid(values, known), default_prior(4))
    assert out.positions.tolist() == [[2, 2]]
    assert np.all(out.values[0] == 17)


def test_all_mask_grid_falls_back_to_prior():
    prior = default_prior(4)
    grid = _grid(np.zeros((3, 4, 4)), np.zeros((3, 4)))
    out = predict(grid, prior)
    # every position, row-major, position independent and equal to the prior
    assert out.positions.tolist() == [[r, c] for r in range(3)
                                      for c in range(4)]
    assert out.means.shape == out.sigmas.shape == (12, 4)
    assert not out.has_neighbors.any()
    assert np.all(out.means == out.means[0])
    assert np.array_equal(out.means[0], prior.means)
    assert np.array_equal(out.sigmas[0], prior.stds)
    assert np.all(out.values == np.rint(prior.means).astype(np.int16))


def test_half_mask_beats_prior_fill(smooth_image):
    cfg = CodecConfig()
    full = analyze(smooth_image, cfg)
    mask = (np.indices(full.known.shape).sum(axis=0) % 2).astype(bool)
    masked = TokenGrid(np.where(mask[:, :, None], 0, full.values),
                       ~mask)
    prior = default_prior(cfg.channels)
    out = predict(masked, prior)
    assert np.array_equal(out.positions, np.argwhere(mask))
    err_pred = np.abs(out.values.astype(float)
                      - full.values[mask].astype(float)).mean()
    prior_fill = np.rint(prior.means).astype(np.int16)
    err_prior = np.abs(prior_fill[None, :]
                       - full.values[mask].astype(float)).mean()
    assert err_pred < err_prior


def test_conceal_pass_through_and_fill():
    known = np.zeros((2, 2), bool)
    known[0, 0] = True
    values = np.zeros((2, 2, 3), np.int16)
    values[0, 0] = (9, -9, 4)
    grid = _grid(values, known)
    out = predict(grid, default_prior(3))
    full = conceal(grid, out)
    assert full.known.all()
    assert tuple(full.values[0, 0]) == (9, -9, 4)
    assert out.positions.tolist() == [[0, 1], [1, 0], [1, 1]]
    assert np.array_equal(full.values[~known], out.values)


def test_conceal_identity_when_nothing_masked():
    grid = _full_grid(2, 2, 3, fill=7)
    out = predict(grid, default_prior(3))
    assert out.positions.shape == (0, 2)
    assert out.values.shape == (0, 3)
    assert np.array_equal(conceal(grid, out).values, grid.values)


def test_conceal_everything_masked_uses_predictions():
    grid = _grid(np.zeros((2, 2, 3)), np.zeros((2, 2)))
    out = predict(grid, default_prior(3))
    assert np.array_equal(conceal(grid, out).values,
                          out.values.reshape(2, 2, 3))


def test_predict_is_local():
    # A known token farther than the window cannot change the output.
    h = w = 30
    known = np.zeros((h, w), bool)
    known[0, 0] = True
    values = np.zeros((h, w, 2), np.int16)
    values[0, 0] = 50
    prior = default_prior(2)
    radius = DEFAULT_WINDOW // 2
    region = [(r, c) for r in range(radius + 1) for c in range(radius + 1)
              if (r, c) != (0, 0)]
    base = predict(_grid(values, known), prior, region)
    far = values.copy()
    far_known = known.copy()
    far_known[29, 29] = True
    far[29, 29] = -50
    changed = predict(_grid(far, far_known), prior, region)
    assert base.positions.tolist() == [list(p) for p in region]
    assert np.all(base.values == 50)
    for a, b in ((base.values, changed.values), (base.means, changed.means),
                 (base.sigmas, changed.sigmas),
                 (base.has_neighbors, changed.has_neighbors)):
        assert a.tobytes() == b.tobytes()
    # ...while a known token inside the window does change it.
    near_known = known.copy()
    near_known[radius, radius] = True
    near = values.copy()
    near[radius, radius] = -50
    moved = predict(_grid(near, near_known), prior, region)
    assert not np.array_equal(base.means, moved.means)


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), channels=st.integers(1, 5),
       window=st.sampled_from([1, 3, 5, 11]), known_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_value_only_concealment_equals_the_full_prediction(
        h, w, channels, window, known_share, seed):
    rng = np.random.default_rng(seed)
    grid = _grid(rng.integers(-127, 128, size=(h, w, channels)),
                 rng.random((h, w)) < known_share)
    prior = PriorModel(means=rng.normal(0.0, 20.0, channels),
                       stds=rng.uniform(SIGMA_FLOOR, 30.0, channels),
                       window=window)
    full = predict(grid, prior)
    values_only = predict(grid, prior, sigmas=False)
    assert values_only.sigmas is None
    for name in ("positions", "means", "values", "has_neighbors"):
        got, want = getattr(values_only, name), getattr(full, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    got, want = conceal(grid, values_only), conceal(grid, full)
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(got.known, want.known)


def test_value_only_output_has_no_table_keys():
    grid = _grid(np.zeros((2, 2, 3)), [[True, False], [False, False]])
    output = predict(grid, default_prior(3), sigmas=False)
    with pytest.raises(ValueError, match="no sigmas"):
        mixture_keys(output)


def test_heads_are_consistent():
    rng = np.random.default_rng(3)
    values = rng.integers(-20, 20, size=(6, 6, 4)).astype(np.int16)
    known = rng.random((6, 6)) < 0.5
    out = predict(_grid(values, known), default_prior(4))
    assert np.array_equal(out.positions, np.argwhere(~known))
    assert np.array_equal(out.values,
                          np.rint(out.means).astype(np.int16))


def test_mixture_weights_softmax():
    # (1, 1) has known neighbors; (3, 8) has none inside its window.
    known = np.zeros((5, 10), bool)
    known[:3, :3] = True
    known[1, 1] = False
    prior = default_prior(2)
    out = predict(_grid(np.zeros((5, 10, 2)), known), prior,
                  [(1, 1), (3, 8)])
    assert out.has_neighbors.tolist() == [True, False]
    logits = np.array(DEFAULT_LOGITS)
    s = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
    # The trailing two logits both weigh the prior; pooled by one addition.
    # Row 1 is the neighbour class, row 0 the class without neighbours.
    assert prior.mixture_weights[1].tolist() == [s[0], s[1] + s[2]]
    third = 1.0 / 3.0
    assert prior.mixture_weights[0].tolist() == [third, third + third]


def test_fit_prior_floors_std():
    grids = [_full_grid(2, 2, 3, fill=4)]
    prior = fit_prior(grids)
    assert np.all(prior.stds >= SIGMA_FLOOR)
    assert np.allclose(prior.means, 4.0)


def test_model_file_roundtrip(tmp_path):
    prior = PriorModel(means=np.arange(5, dtype=float),
                       stds=np.linspace(1.0, 3.0, 5),
                       window=9, logits=(2.0, 1.0, 0.0))
    path = tmp_path / "model.rcpm"
    save_prior(path, prior)
    assert path.read_bytes()[:4] == MODEL_MAGIC
    loaded = load_prior(path)
    assert np.array_equal(loaded.means, prior.means)
    assert np.array_equal(loaded.stds, prior.stds)
    assert loaded.window == 9
    assert loaded.logits == (2.0, 1.0, 0.0)


def test_model_file_bad_magic(tmp_path):
    path = tmp_path / "bogus.rcpm"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        load_prior(path)


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorModel(means=np.zeros(3), stds=np.full(3, 0.01))
    with pytest.raises(ValueError):
        PriorModel(means=np.zeros(3), stds=np.ones(3), window=4)
    with pytest.raises(ValueError):
        PriorModel(means=np.zeros(3), stds=np.ones(3), logits=(1.0,))


def test_the_window_is_bounded_by_exact_sums():
    assert MAX_WINDOW == 37
    assert PriorModel(means=np.zeros(2), stds=np.ones(2),
                      window=MAX_WINDOW).window == 37
    for window in (39, 65535):
        with pytest.raises(ValueError, match="window"):
            PriorModel(means=np.zeros(2), stds=np.ones(2), window=window)


def test_a_model_file_with_a_window_past_the_bound_is_refused(tmp_path):
    path = tmp_path / "model.rcpm"
    save_prior(path, PriorModel(means=np.zeros(2), stds=np.ones(2)))
    raw = bytearray(path.read_bytes())
    # Magic (4 bytes), version (1), channels (2), then the window (2).
    raw[7:9] = (65535).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="window"):
        load_prior(path)


@pytest.mark.parametrize("bound", [predictor._PRODUCT_ELEMENTS, 1 << 40])
def test_window_sums_are_exact_at_the_widest_window_and_clamp(bound):
    # Every token at +-32767, the widest clamp, all known: the squares
    # column's sums come within 2% of 2**53 and must all be exact.
    window = MAX_WINDOW
    radius = window // 2
    h, w = 45, 41
    rng = np.random.default_rng(0)
    values = np.full((h, w, 2), 32767)
    values[:, :, 0] *= rng.choice([-1, 1], size=(h, w))
    grid = _grid(values, np.ones((h, w)))
    columns = np.concatenate([np.ones((h, w, 1), np.int64), values,
                              values * values], axis=2)
    padded = np.pad(columns, ((radius, radius), (radius, radius), (0, 0)))
    kernel = _window_kernel(window).astype(np.int64)
    want = np.zeros((h, w, columns.shape[2]), np.int64)
    for dy, dx in np.argwhere(kernel):
        want += kernel[dy, dx] * padded[dy:dy + h, dx:dx + w]
    assert 2**52 < want.max() < 2**53
    rows, cols = np.divmod(np.arange(h * w), w)
    with mock.patch.object(predictor, "_PRODUCT_ELEMENTS", bound):
        got = _window_sums(_known_columns(grid, True, radius), rows, cols,
                           window)
    assert np.array_equal(got, want.reshape(h * w, -1).astype(np.float64))
    assert np.array_equal(got.astype(np.int64), want.reshape(h * w, -1))


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), channels=st.integers(1, 3),
       window=st.sampled_from([1, 3, 11, MAX_WINDOW]),
       seed=st.integers(0, 2**32 - 1),
       bound=st.sampled_from([0, 2000, 1 << 40]))
def test_running_sums_equal_a_fresh_prediction(h, w, channels, window, seed,
                                               bound):
    # Tokens become known in random batches; after each, the running
    # sums' value head is the one a fresh `predict` gives, bit for bit.
    rng = np.random.default_rng(seed)
    order = rng.permutation(h * w)
    cuts = [0, *sorted(rng.integers(0, h * w + 1, size=4).tolist()), h * w]
    grid = _grid(rng.integers(-127, 128, size=(h, w, channels)),
                 np.zeros((h, w)))
    grid.known.reshape(-1)[order[:cuts[1]]] = True
    prior = PriorModel(means=rng.normal(0.0, 10.0, channels),
                       stds=rng.uniform(SIGMA_FLOOR, 30.0, channels),
                       window=window)
    with mock.patch.object(predictor, "_PRODUCT_ELEMENTS", bound):
        sums = RunningSums(grid, prior)
        for lo, hi in zip(cuts[1:], cuts[2:]):
            grid.known.reshape(-1)[order[lo:hi]] = True
            got = sums.predict(grid)
            want = predict(grid, prior, sigmas=False)
            for name in ("positions", "means", "values", "has_neighbors"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Predictions and packet payloads, printed as a digest by a child
# process, so that runs under two BLAS kernels can be compared.
_PREDICT_DIGEST = """
import hashlib, numpy as np
from resicomp.context_modes import make_mode
from resicomp.partition import build_plan
from resicomp.pipeline import PipelineConfig, send
from resicomp.predictor import PriorModel, collect_context, predict
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig, TokenGrid
rng = np.random.default_rng(11)
h = hashlib.sha256()
for window in (3, 11, 37):
    grid = TokenGrid(rng.integers(-32767, 32768, size=(30, 34, 8)),
                     rng.random((30, 34)) < 0.6)
    prior = PriorModel(means=rng.normal(0.0, 9.0, 8),
                       stds=rng.uniform(1.0, 20.0, 8), window=window)
    mode = make_mode("MDC", 10, {"n_d": 2})
    context = collect_context(range(1, 11), mode,
                              build_plan(30, 34, 10, mode, 3), grid)
    for out in (predict(grid, prior), predict(context, prior)):
        for a in (out.means, out.sigmas, out.values, out.has_neighbors):
            h.update(a.tobytes())
for kind in ("LC", "ISC", "MDC"):
    cfg = PipelineConfig(codec=CodecConfig(channels=16), mode_kind=kind, l=8,
                         mode_params={"n_d": 2} if kind == "MDC" else {})
    for index in (2, 5):
        packets, _, _, _ = send(synthetic_image(index, 128, 144), cfg)
        for p in packets:
            h.update(p.payload.data)
print(h.hexdigest())
"""


def _predict_digest(**env):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH",
                                                              "")])}
    return subprocess.run([sys.executable, "-c", _PREDICT_DIGEST], env=env,
                          capture_output=True, text=True)


def _dynamic_arch_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS that picks its "
                           "kernel at run time")
def test_predictions_do_not_depend_on_the_blas_kernel():
    plain = _predict_digest()
    assert plain.returncode == 0, plain.stderr
    old = _predict_digest(OPENBLAS_CORETYPE="Prescott")
    assert old.returncode == 0, old.stderr
    assert old.stdout == plain.stdout
