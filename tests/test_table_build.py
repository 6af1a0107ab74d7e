"""The shared-table builder against a per-row reference.

`pipeline.TableStore` builds one frequency table per distinct key, and
`discretize_batch` integrates each distinct component once.  Both must
give, for every symbol, exactly the counts that integrating and
quantizing that symbol's (snapped) row alone gives.  The reference below is
the direct evaluation: every component of every row integrated over
all bins with the pinned CDF written as one expression, then
largest-remainder quantization by a full sort.  Streams and sweep
episodes share the process's store of their prior and clamp, and code
exactly as they do from empty stores, in one thread or in several.
"""

import math
import sys
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resicomp import cli, density, pipeline
from resicomp.density import (FREQ_TOTAL, SIGMA_FLOOR, SIGMA_LEVELS,
                              FreqTable, _normal_cdf_in_place,
                              discretize_batch, quantize_probs, unique_rows)
from resicomp.pipeline import (OUTCOME_LOSSLESS, PipelineConfig, Receiver,
                               TableStore, receive, send)
from resicomp.predictor import default_prior, fit_prior, predict
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig, TokenGrid, analyze
from resicomp.transport import preset


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
@given(st.integers(min_value=1, max_value=4).flatmap(_mixture_rows),
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


_CODEC = CodecConfig(channels=16)
_IMAGES = [synthetic_image(seed, height=48, width=64) for seed in (3, 5)]
_MODES = [("ISC", {}), ("LC", {}), ("MDC", {"n_d": 2}),
          ("SLC", {"enhancements": 1})]


def _coded(image, cfg, arrived):
    """What a stream's send and a receive of its arrived slices give:
    the packet bytes, the grid and image bytes, the outcome and the
    slice states."""
    packets, _, _, _ = send(image, cfg)
    got = receive(packets, arrived[:cfg.l], cfg, *image.shape)
    return ([p.to_bytes() for p in packets], got.grid.values.tobytes(),
            got.image.tobytes(), got.outcome, got.slice_status)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(range(len(_IMAGES))),
                          st.sampled_from(_MODES), st.integers(2, 8),
                          st.lists(st.booleans(), min_size=8, max_size=8)),
                min_size=2, max_size=4))
def test_streams_sharing_a_store_code_as_with_their_own(empty_stores,
                                                        streams):
    # The process store meets each stream's keys after other streams'
    # keys and in another order than an emptied one does.
    configs = [(_IMAGES[image_index],
                PipelineConfig(codec=_CODEC, mode_kind=kind, l=l,
                               mode_params=params), arrived)
               for image_index, (kind, params), l, arrived in streams]
    own = []
    for case in configs:
        empty_stores()
        own.append(_coded(*case))
    empty_stores()
    assert [_coded(*case) for case in configs] == own


def test_streams_of_two_priors_and_two_clamps_code_as_with_fresh_stores(
        empty_stores):
    fitted = fit_prior([analyze(image, _CODEC) for image in _IMAGES])
    narrow = CodecConfig(channels=16, clamp=63)
    # Each run of four streams meets all four stores.
    configs = [PipelineConfig(codec=codec, mode_kind=kind, l=l,
                              mode_params=params, prior=prior)
               for (kind, params), l in zip(_MODES[1:], (4, 6, 5))
               for codec in (_CODEC, narrow) for prior in (None, fitted)]
    arrived = [True, False, True, True, True, True]
    own = []
    for cfg in configs:
        empty_stores()
        own.append(_coded(_IMAGES[0], cfg, arrived))
    empty_stores()
    assert [_coded(_IMAGES[0], cfg, arrived) for cfg in configs] == own
    assert len(pipeline._stores) == 4


def test_threads_sharing_a_store_code_as_one_thread_does(empty_stores):
    images = [synthetic_image(seed, height=64, width=64)
              for seed in range(11, 17)]
    cases = [(image, PipelineConfig(codec=_CODEC, mode_kind=kind, l=6,
                                    mode_params=params), [True] * 6)
             for image, (kind, params) in zip(images, _MODES * 2)]
    serial = [_coded(*case) for case in cases]
    empty_stores()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap in the midst of a build
    try:
        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            threaded = list(pool.map(lambda case: _coded(*case), cases,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _rows(store):
    return store._rows, store._cum[:len(store)].tobytes()


def test_the_stores_are_dropped_at_the_cap_and_kept_by_open_streams(
        monkeypatch, empty_stores):
    model = preset("EP6")
    first = PipelineConfig(codec=_CODEC, mode_kind="LC", l=4)
    second = PipelineConfig(codec=_CODEC, mode_kind="MDC", l=6,
                            mode_params={"n_d": 2})
    prior = first.get_prior()
    # Packets whose keys the store below has not met.
    packets, grid, _, _ = send(_IMAGES[1], second)
    empty_stores()
    cli.run_episode(_IMAGES[0], first, model, 1)
    store = pipeline.table_store(prior, _CODEC.clamp)
    cli.run_episode(_IMAGES[1], first, model, 2)
    assert pipeline.table_store(prior, _CODEC.clamp) is store  # under the cap
    session = Receiver(packets[0].header)
    monkeypatch.setattr(pipeline, "STORE_CAP_BYTES", store.nbytes)
    row = cli.run_episode(_IMAGES[1], second, model, 3)
    replaced = pipeline.table_store(prior, _CODEC.clamp)
    assert replaced is not store and 0 < len(replaced) < len(store)
    # The session opened before the drop builds into the store it holds.
    held = len(store)
    session.add(*packets)
    result = session.result()
    assert result.outcome == OUTCOME_LOSSLESS
    assert result.grid.values.tobytes() == grid.values.tobytes()
    assert session.store is store and len(store) > held
    empty_stores()
    assert cli.run_episode(_IMAGES[1], second, model, 3) == row
    assert _rows(replaced) == _rows(pipeline.table_store(prior, _CODEC.clamp))
    monkeypatch.setattr(pipeline, "STORE_CAP_BYTES", 2**40)
    # Another prior, then the same prior at another clamp, each a store
    # beside the others.
    other = default_prior(8)
    for codec in (CodecConfig(channels=8), CodecConfig(channels=8, clamp=63)):
        cli.run_episode(_IMAGES[0], replace(first, codec=codec, prior=other),
                        model, 4)
    assert [(s.prior.fingerprint, s.clamp) for s in pipeline._stores.values()
            ] == [(prior.fingerprint, 127), (other.fingerprint, 127),
                  (other.fingerprint, 63)]


def test_a_sweep_builds_each_key_once(tmp_path, monkeypatch, empty_stores):
    built, keys = [], set()
    batch, mixture_keys = FreqTable.batch, pipeline.mixture_keys

    def counted(counts):
        built.append(len(counts))
        return batch(counts)

    def seen(output):
        found = mixture_keys(output)
        keys.update(found.tolist())
        return found

    monkeypatch.setattr(FreqTable, "batch", staticmethod(counted))
    monkeypatch.setattr(pipeline, "mixture_keys", seen)
    spec = cli.SweepSpec(synthetic_images=2, modes=["LC", "MDC:2", "SLC:1"],
                         l_values=[4], presets=["EP3", "EP6"],
                         fec_grid=[(4, 2)], channels=16,
                         output=str(tmp_path / "out.csv"))
    spec.validate()
    cli.run_sweep(spec, jobs=1)
    assert len(keys) > 0
    [store] = pipeline._stores.values()
    assert sum(built) == len(keys) == len(store)
