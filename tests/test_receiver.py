"""The receiver session against per-prefix decoding from scratch."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp import entropy_coder, pipeline
from resicomp.context_modes import make_mode
from resicomp.density import FreqTable
from resicomp.entropy_coder import Bitstring
from resicomp.pipeline import (OUTCOME_CONCEALED, OUTCOME_FAILED,
                               OUTCOME_LOSSLESS, SLICE_CORRUPT, SLICE_DECODED,
                               SLICE_LOST, SLICE_ORPHANED, PipelineConfig,
                               Receiver, SliceStatus, progressive_receive,
                               receive, send)
from resicomp.predictor import (SynchronizationError, collect_context,
                                conceal, predict)
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import BLOCK, CodecConfig, TokenGrid, synthesize
from resicomp.transport import Packet


def _cfg(codec, kind="LC", l=6, params=None):
    return PipelineConfig(codec=codec, mode_kind=kind, l=l,
                          mode_params=params or {})


def _receive_from_scratch(packets, flags, cfg, out_height, out_width):
    """Decode one set of flagged packets alone, slice by slice in order.

    The receiver before sessions: rebuild everything, try every flagged
    slice once in ascending order, conceal the rest.
    """
    by_slice = {p.header.slice_index + 1: p for p in packets if p is not None}
    ref = [p.header for p in packets if p is not None][-1]
    l = ref.total_slices
    mode = make_mode(cfg.mode_kind, cfg.l, cfg.mode_params)
    grid_h, grid_w = -(-ref.height // BLOCK), -(-ref.width // BLOCK)
    plan = pipeline.build_plan(grid_h, grid_w, l, mode, ref.plan_seed,
                               ref.beta_milli / 1000.0)
    prior = cfg.get_prior()
    grid = TokenGrid(np.zeros((grid_h, grid_w, ref.channels)),
                     np.zeros((grid_h, grid_w), bool))
    depths = pipeline.context_depths(mode)
    decoded = [False] * l
    status = [SliceStatus(SLICE_LOST)] * l
    depths_predicted = set()
    for i in range(1, l + 1):
        if not (flags[i - 1] and i in by_slice):
            continue
        try:
            ctx = collect_context(i, mode, decoded, plan, grid)
        except SynchronizationError as exc:
            status[i - 1] = SliceStatus(SLICE_ORPHANED, exc.missing_context)
            continue
        if mode.contexts_of(i):
            depths_predicted.add(depths[i - 1])
        output = predict(ctx, prior, plan.slice_positions(i))
        cum, rows = pipeline.TableStore(prior, cfg.codec.clamp).tables(output)
        try:
            symbols = entropy_coder.decode(by_slice[i].payload, rows, cum)
        except entropy_coder.CorruptStreamError:
            status[i - 1] = SliceStatus(SLICE_CORRUPT)
            continue
        rows, cols = output.positions.T
        grid.values[rows, cols] = (np.array(symbols) - cfg.codec.clamp
                                   ).reshape(len(rows), ref.channels)
        grid.known[rows, cols] = True
        decoded[i - 1] = True
        status[i - 1] = SliceStatus(SLICE_DECODED)
    passes = len(depths_predicted)
    n_decoded = sum(decoded)
    if n_decoded == l:
        outcome, full = OUTCOME_LOSSLESS, grid.copy()
    else:
        outcome = OUTCOME_FAILED if n_decoded == 0 else OUTCOME_CONCEALED
        passes += bool(grid.known.any())
        full = conceal(grid, predict(grid, prior))
    image = synthesize(full, cfg.codec, out_height, out_width)
    return (image, full, outcome,
            [i + 1 for i in range(l) if decoded[i]], passes, status)


def _as_tuple(result):
    return (result.image, result.grid, result.outcome, result.decoded_slices,
            result.predictor_passes, result.slice_status)


def _assert_same(got, want):
    image, grid, outcome, decoded, passes, status = got
    w_image, w_grid, w_outcome, w_decoded, w_passes, w_status = want
    assert image.tobytes() == w_image.tobytes()
    assert grid.values.tobytes() == w_grid.values.tobytes()
    assert grid.known.tobytes() == w_grid.known.tobytes()
    assert (outcome, decoded, passes) == (w_outcome, w_decoded, w_passes)
    assert status == w_status


_MODES = [("ISC", {}), ("LC", {}), ("MDC", {"n_d": 2}), ("MDC", {"n_d": 3}),
          ("SLC", {"enhancements": 1}), ("SLC", {"enhancements": 2})]
_IMAGE = synthetic_image(3, height=48, width=64)  # 3x4 token grid
_GARBAGE = Bitstring(b"\xff" * 4)


@st.composite
def _streams(draw):
    kind, params = draw(st.sampled_from(_MODES))
    l = draw(st.integers(max(2, params.get("n_d", 0),
                             params.get("enhancements", 0) + 1), 9))
    cfg = _cfg(CodecConfig(channels=draw(st.sampled_from([16, 64]))), kind,
               l, params)
    arrived = draw(st.lists(st.booleans(), min_size=l, max_size=l))
    damaged = draw(st.lists(st.booleans(), min_size=l, max_size=l))
    return cfg, arrived, damaged


@settings(max_examples=60, deadline=None)
@given(_streams())
def test_progressive_equals_per_prefix_decoding(stream):
    cfg, arrived, damaged = stream
    packets, _, _, _ = send(_IMAGE, cfg)
    if not any(arrived):
        arrived[0] = True
    packets = [
        None if not a else Packet(header=p.header, payload=_GARBAGE) if d
        else p for p, a, d in zip(packets, arrived, damaged)]
    steps = progressive_receive(packets, cfg, *_IMAGE.shape)
    assert len(steps) == cfg.l
    for k, step in enumerate(steps, start=1):
        flags = [i < k for i in range(cfg.l)]
        _assert_same(_as_tuple(step), _receive_from_scratch(
            packets, flags, cfg, *_IMAGE.shape))


def test_lossless_receive_reports_every_slice_decoded(small_image,
                                                      light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    result = receive(packets, [1] * cfg.l, cfg, *small_image.shape)
    assert result.slice_status == [SliceStatus(SLICE_DECODED)] * cfg.l


def test_lost_first_slice_orphans_the_rest(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    result = receive(packets, [0] + [1] * (cfg.l - 1), cfg,
                     *small_image.shape)
    assert result.slice_status == (
        [SliceStatus(SLICE_LOST)]
        + [SliceStatus(SLICE_ORPHANED, 1)] * (cfg.l - 1))
    assert str(result.slice_status[1]) == "orphaned by 1"


def test_swapped_payloads_report_a_corrupt_slice(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    a, b = packets[2], packets[3]
    packets[2] = Packet(header=a.header, payload=b.payload)
    packets[3] = Packet(header=b.header, payload=a.payload)
    result = receive(packets, [1] * cfg.l, cfg, *small_image.shape)
    assert [str(s) for s in result.slice_status] == [
        "decoded", "decoded", "decoded", "corrupt", "orphaned by 4",
        "orphaned by 4"]


@pytest.mark.parametrize("kind,params", [("LC", {}), ("MDC", {"n_d": 2})])
def test_packets_in_any_order(small_image, light_codec, kind, params):
    cfg = _cfg(light_codec, kind, 8, params)
    image = synthetic_image(5, height=48, width=64)
    packets, grid, _, _ = send(image, cfg)
    want = _as_tuple(receive(packets, [1] * cfg.l, cfg, *image.shape))
    shuffled = list(packets)
    random.Random(1).shuffle(shuffled)
    for order in (packets[::-1], shuffled):
        # The session's table store meets the keys in another order than
        # the sender's; the tables, and so the tokens, are the same.
        session = Receiver(order[0].header)
        for p in order:
            session.add(p)
        result = session.result()
        assert result.outcome == OUTCOME_LOSSLESS
        assert np.array_equal(result.grid.values, grid.values)
        _assert_same(_as_tuple(result), want)


def test_copies_of_held_slices_change_nothing(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    session = Receiver(packets[0].header)
    for p in packets[:3]:
        session.add(p)
    want = _as_tuple(session.result())
    corrupt = Packet(header=packets[1].header,
                     payload=Bitstring(b"\xff" * 4))
    for p in (packets[0], packets[2], corrupt):
        session.add(p)
    _assert_same(_as_tuple(session.result()), want)
    assert session.packets[2] is packets[1]


def test_receive_refuses_flags_that_drop_a_held_packet(small_image,
                                                       light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    session = Receiver(packets[0].header)
    receive(packets, [1, 1, 0, 0, 0, 0], cfg, *small_image.shape,
            receiver=session)
    with pytest.raises(ValueError):
        receive(packets, [1, 0, 1, 0, 0, 0], cfg, *small_image.shape,
                receiver=session)


def test_progressive_builds_no_more_tables_than_one_receive(monkeypatch,
                                                            light_codec):
    cfg = _cfg(light_codec, l=8)
    image = synthetic_image(5, height=64, width=64)
    packets, _, _, _ = send(image, cfg)
    rows = []
    batch = FreqTable.batch

    def counted(counts):
        rows.append(len(counts))
        return batch(counts)

    monkeypatch.setattr(FreqTable, "batch", staticmethod(counted))
    receive(packets, [1] * cfg.l, cfg, *image.shape)
    once = sum(rows)
    rows.clear()
    steps = progressive_receive(packets, cfg, *image.shape)
    assert steps[-1].outcome == OUTCOME_LOSSLESS
    assert 0 < sum(rows) <= once
