"""The indexed entropy model: the snapping grid, table keys and the store.

Each symbol's table is a pure function of its key, so a table must not
depend on which other keys were built with it, and a stream's send must
build each of its distinct keys exactly once, leaving none for its
receive to build.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp import pipeline
from resicomp.density import (CLAMP_MAX, MU_STEPS, SIGMA_FLOOR, SIGMA_LEVELS,
                              SIGMA_RATIO, FreqTable, key_mixtures,
                              mixture_keys, snap)
from resicomp.entropy_coder import peaks
from resicomp.pipeline import (OUTCOME_LOSSLESS, PipelineConfig, TableStore,
                               receive, send)
from resicomp.predictor import PredictorOutput, predict
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig

from test_predictor import _collect_context_by_positions

# SHA-256 of SIGMA_LEVELS as little-endian float64: the levels are part
# of the format, and any change to how they are built shows here.
SIGMA_LEVELS_DIGEST = (
    "7678f170f0e2bb7778c25e8c5d148c79729e4b90ccf706fb96efc93130cfa63a")


def test_sigma_levels_are_pinned():
    assert len(SIGMA_LEVELS) == 104
    assert SIGMA_LEVELS[0] == SIGMA_FLOOR
    assert SIGMA_LEVELS[-2] < CLAMP_MAX <= SIGMA_LEVELS[-1]
    digest = hashlib.sha256(SIGMA_LEVELS.astype("<f8").tobytes()).hexdigest()
    assert digest == SIGMA_LEVELS_DIGEST


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-CLAMP_MAX, max_value=CLAMP_MAX),
       st.floats(min_value=SIGMA_FLOOR, max_value=CLAMP_MAX))
def test_snapping_is_close_and_idempotent(mu, sigma):
    (mu_index,), (sigma_index,) = snap([mu], [sigma])
    mu_q = mu_index / MU_STEPS
    sigma_q = SIGMA_LEVELS[sigma_index]
    assert abs(mu_q - mu) <= 1 / 16
    # The levels are products rounded to float64, so a ratio may exceed
    # the half step by a few ulps.
    slack = 1e-12
    assert SIGMA_RATIO ** -0.5 * (1 - slack) <= sigma_q / sigma
    assert sigma_q / sigma <= SIGMA_RATIO ** 0.5 * (1 + slack)
    again = snap([mu_q], [sigma_q])
    assert (again[0][0], again[1][0]) == (mu_index, sigma_index)


def _output(channel_rows, channels):
    """A PredictorOutput with one position per (channel, has, mu, sigma)."""
    n = len(channel_rows)
    means = np.zeros((n, channels))
    sigmas = np.full((n, channels), SIGMA_FLOOR)
    has = np.zeros(n, bool)
    for j, (c, neighbour, mu, sigma) in enumerate(channel_rows):
        means[j, c], sigmas[j, c], has[j] = mu, sigma, neighbour
    return PredictorOutput(
        positions=np.zeros((n, 2), np.intp), means=means, sigmas=sigmas,
        values=np.zeros((n, channels), np.int16), has_neighbors=has)


@st.composite
def _symbols(draw, channels, clamp):
    return (draw(st.integers(0, channels - 1)), draw(st.booleans()),
            draw(st.floats(min_value=-clamp, max_value=clamp)),
            draw(st.floats(min_value=SIGMA_FLOOR, max_value=clamp)))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 255), st.integers(1, CLAMP_MAX))
def test_keys_are_distinct_for_distinct_tables(data, channels, clamp):
    a, b = (data.draw(_symbols(channels, clamp)) for _ in range(2))
    output = _output([a, b], channels)
    keys = mixture_keys(output).reshape(2, channels)
    key_a, key_b = keys[0, a[0]], keys[1, b[0]]
    assert 0 <= min(key_a, key_b) and max(key_a, key_b) < 2**63

    def table_of(symbol):
        c, neighbour, mu, sigma = symbol
        if not neighbour:
            return (c,)
        (mu_index,), (sigma_index,) = snap([mu], [sigma])
        return c, mu_index, sigma_index

    assert (key_a == key_b) == (table_of(a) == table_of(b))


def test_extreme_keys_are_distinct():
    corners = [(c, True, mu, sigma) for c in (0, 254)
               for mu in (-CLAMP_MAX, 0.0, CLAMP_MAX)
               for sigma in (SIGMA_FLOOR, CLAMP_MAX)]
    corners += [(0, False, 0.0, SIGMA_FLOOR), (254, False, 0.0, SIGMA_FLOOR)]
    output = _output(corners, 255)
    keys = mixture_keys(output).reshape(len(corners), 255)
    picked = [int(keys[j, c]) for j, (c, *_) in enumerate(corners)]
    assert len(set(picked)) == len(corners)
    assert max(picked) < 2**63


def _slice_outputs(image, cfg):
    """Sender-side predictor output of every slice, and the grid."""
    packets, grid, plan, mode = send(image, cfg)
    prior = cfg.get_prior()
    outputs = []
    for i in range(1, mode.l + 1):
        ctx = _collect_context_by_positions(i, mode, plan, grid)
        outputs.append(predict(ctx, prior, plan.slice_positions(i)))
    return packets, grid, outputs


def _lc(channels=16, l=6):
    return PipelineConfig(codec=CodecConfig(channels=channels), mode_kind="LC",
                          l=l)


def _build_tables(weights, means, sigmas, v):
    """`TableStore`'s build chain, by the names `pipeline` calls."""
    return pipeline.FreqTable.batch(pipeline.quantize_probs(
        pipeline.discretize_batch(weights, means, sigmas, v)))


def test_a_table_is_the_same_alone_and_in_any_batch():
    image = synthetic_image(3, height=64, width=64)
    cfg = _lc()
    _, _, outputs = _slice_outputs(image, cfg)
    rows = [key_mixtures(np.unique(mixture_keys(output)), cfg.get_prior())
            for output in outputs]
    weights, means, sigmas = (np.concatenate(a) for a in zip(*rows))
    assert len(weights) > 2 * 64  # crosses the build's row blocks
    alone = [_build_tables(weights[j:j + 1], means[j:j + 1],
                           sigmas[j:j + 1], 127)[0]
             for j in range(len(weights))]
    order = np.random.default_rng(2).permutation(len(weights))
    for batch in (np.arange(len(weights)), order, order[:100]):
        tables = _build_tables(weights[batch], means[batch], sigmas[batch],
                               127)
        for j, table in zip(batch, tables):
            assert table.tobytes() == alone[j].tobytes()


def test_store_tables_are_shared_by_key():
    image = synthetic_image(3, height=64, width=64)
    cfg = _lc()
    _, _, outputs = _slice_outputs(image, cfg)
    store = TableStore(cfg.get_prior(), 127)
    seen = {}
    for output in outputs:
        _, rows = store.tables(output)
        for key, row in zip(mixture_keys(output).tolist(), rows.tolist()):
            assert seen.setdefault(key, row) == row
    assert len(store) == len(seen) == len(set(seen.values()))


def test_a_grown_store_keeps_every_earlier_row():
    image = synthetic_image(3, height=64, width=64)
    cfg = _lc()
    _, _, outputs = _slice_outputs(image, cfg)
    store = TableStore(cfg.get_prior(), 127)
    first = {}  # key -> (row, its bytes) when the key was first met
    arrays = []
    for output in outputs:
        cum, rows = store.tables(output)
        assert len(cum) == len(store)
        for key, row in zip(mixture_keys(output).tolist(), rows.tolist()):
            assert first.setdefault(key, (row, cum[row].tobytes()))[0] == row
        for row, data in first.values():
            assert cum[row].tobytes() == data
        arrays.append(cum)
    grown = sum(not np.shares_memory(a, b) for a, b in zip(arrays, arrays[1:]))
    assert grown >= 2


def test_a_send_builds_each_key_once_and_its_receive_none(monkeypatch,
                                                        empty_stores):
    image = synthetic_image(5, height=64, width=80)
    cfg = _lc(l=8)
    _, _, outputs = _slice_outputs(image, cfg)
    distinct = set()
    for output in outputs:
        distinct.update(mixture_keys(output).tolist())
    rows = []
    batch = FreqTable.batch

    def counted(counts):
        rows.append(len(counts))
        return batch(counts)

    monkeypatch.setattr(FreqTable, "batch", staticmethod(counted))
    empty_stores()
    packets, _, _, _ = send(image, cfg)
    assert sum(rows) == len(distinct)
    rows.clear()
    result = receive(packets, [1] * cfg.l, cfg, *image.shape)
    assert result.outcome == OUTCOME_LOSSLESS
    assert sum(rows) == 0


def test_a_store_builds_new_keys_in_bounded_chunks(monkeypatch):
    image = synthetic_image(5, height=64, width=64)
    cfg = _lc(channels=64)
    _, grid, plan, mode = send(image, cfg)
    prior = cfg.get_prior()
    output = predict(pipeline.collect_context(range(1, cfg.l + 1), mode, plan,
                                              grid), prior)
    batches = []
    discretize = pipeline.discretize_batch

    def counted(weights, *args):
        batches.append(len(weights))
        return discretize(weights, *args)

    monkeypatch.setattr(pipeline, "discretize_batch", counted)
    cum, rows = TableStore(prior, 127).tables(output)
    assert len(cum) == len(np.unique(mixture_keys(output))) == sum(batches)
    assert len(batches) > 1 and max(batches) <= pipeline.TABLE_CHUNK
    batches.clear()
    monkeypatch.setattr(pipeline, "TABLE_CHUNK", len(cum))
    one_cum, one_rows = TableStore(prior, 127).tables(output)
    assert batches == [len(cum)]
    assert cum.tobytes() == one_cum.tobytes()
    assert rows.tobytes() == one_rows.tobytes()


def test_a_store_keeps_each_rows_likeliest_symbol(monkeypatch):
    image = synthetic_image(3, height=64, width=64)
    cfg = _lc()
    _, _, outputs = _slice_outputs(image, cfg)
    monkeypatch.setattr(pipeline, "TABLE_CHUNK", 7)
    store = TableStore(cfg.get_prior(), 127)
    for output in outputs:
        cum, _ = store.tables(output)
        assert store.peaks.tobytes() == peaks(cum).tobytes()
