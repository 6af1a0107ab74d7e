"""The receiver session against per-prefix decoding from scratch."""

import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp import entropy_coder, pipeline, predictor
from resicomp.context_modes import iteration_schedule, make_mode
from resicomp.density import FreqTable
from resicomp.entropy_coder import Bitstring
from resicomp.pipeline import (OUTCOME_CONCEALED, OUTCOME_FAILED,
                               OUTCOME_LOSSLESS, SLICE_CORRUPT, SLICE_DECODED,
                               SLICE_LOST, SLICE_ORPHANED, PipelineConfig,
                               Receiver, SliceStatus, progressive_receive,
                               receive, send, stream_header)
from resicomp.predictor import conceal, predict
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import BLOCK, CodecConfig, TokenGrid, synthesize
from resicomp.transport import Packet, PacketFormatError, packet_from_bytes

from test_predictor import _closed_mode, _collect_context_by_positions


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
        missing = next((j for j in mode.contexts_of(i) if not decoded[j - 1]),
                       None)
        if missing is not None:
            status[i - 1] = SliceStatus(SLICE_ORPHANED, missing)
            continue
        ctx = _collect_context_by_positions(i, mode, plan, grid)
        if mode.contexts_of(i):
            depths_predicted.add(depths[i - 1])
        output = predict(ctx, prior, plan.slice_positions(i))
        store = pipeline.TableStore(prior, cfg.codec.clamp)
        cum, rows = store.tables(output)
        blocks = entropy_coder.blocks(rows, cum, store.peaks, ref.channels)
        try:
            symbols = entropy_coder.decode(by_slice[i].payload, rows, cum,
                                           blocks=blocks)
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
_LARGE_IMAGE = synthetic_image(5, height=160, width=176)  # 10x11 tokens
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


@settings(max_examples=60, deadline=None)
@given(_streams(), st.integers(0, 2**32 - 1), st.booleans())
def test_receive_decodes_by_depth_as_slice_by_slice(stream, seed, custom):
    # One `receive` of the whole flagged list walks the context depths,
    # a pass per depth; decoding alone, slice after slice, must give the
    # same bytes, also where a damaged slice shares its depth.
    cfg, flags, damaged = stream
    mode = make_mode(cfg.mode_kind, cfg.l, cfg.mode_params)
    if custom:
        mode = _closed_mode(cfg.l, np.random.default_rng(seed))
    rng = random.Random(seed)
    # The process keeps the layouts it built, so the injected mode is
    # built only into a cache emptied before and after the patch.
    pipeline.stream_layout.cache_clear()
    try:
        with mock.patch.object(pipeline, "make_mode", lambda *_: mode), \
                mock.patch(f"{__name__}.make_mode", lambda *_: mode):
            packets, _, _, _ = send(_IMAGE, cfg)
            packets = [_damage(p, rng) if d else p
                       for p, d in zip(packets, damaged)]
            _assert_same(
                _as_tuple(receive(packets, flags, cfg, *_IMAGE.shape)),
                _receive_from_scratch(packets, flags, cfg, *_IMAGE.shape))
            session = Receiver(stream_header(cfg, *_IMAGE.shape))
            assert np.array_equal(session.mode.g, mode.g)
    finally:
        pipeline.stream_layout.cache_clear()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([("LC", {}), ("ISC", {}), ("MDC", {"n_d": 2}),
                             ("SLC", {"enhancements": 1})]),
       l=st.integers(2, 9), data=st.data(),
       bound=st.sampled_from([0, 2000, predictor._PRODUCT_ELEMENTS]))
def test_running_concealment_equals_a_fresh_prediction(kind, l, data, bound):
    # Packets in any order, some lost and some sent twice: every
    # concealed prefix of one session, whose concealment sums run across
    # the prefixes, equals a fresh session's grid concealed by `predict`.
    # A small bound cuts the running sums' products into many tiles.
    cfg = _cfg(CodecConfig(channels=16), kind[0], l, kind[1])
    packets, _, _, _ = send(_LARGE_IMAGE, cfg)
    listed = data.draw(st.lists(st.none() | st.sampled_from(packets),
                                min_size=1, max_size=2 * l))
    if all(p is None for p in listed):
        listed[0] = packets[0]
    with mock.patch.object(predictor, "_PRODUCT_ELEMENTS", bound):
        steps = progressive_receive(listed, cfg, *_LARGE_IMAGE.shape)
    for k, step in enumerate(steps, start=1):
        if step.outcome == OUTCOME_LOSSLESS:
            continue
        fresh = Receiver(packets[0].header)
        fresh.add(*(p for p in listed[:k] if p is not None))
        want = conceal(fresh.grid, predict(fresh.grid, fresh.prior))
        assert step.grid.values.tobytes() == want.values.tobytes()
        assert step.grid.known.all()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([("LC", {}), ("ISC", {}), ("MDC", {"n_d": 2})]),
       l=st.integers(2, 8), planes=st.sampled_from([1, 3]),
       height=st.integers(33, 63), width=st.integers(33, 63),
       data=st.data())
def test_each_step_synthesizes_as_a_fresh_synthesis(kind, l, planes, height,
                                                    width, data):
    # A session redraws only the blocks whose tokens changed since its
    # last result; every step's image must still be the one a fresh
    # synthesis of its grid gives, also on blocks the crop cuts.
    cfg = _cfg(CodecConfig(channels=16), kind[0], l, kind[1])
    image = synthetic_image(data.draw(st.integers(0, 99)), height, width,
                            planes)
    packets, _, _, _ = send(image, cfg)
    listed = data.draw(st.lists(st.none() | st.sampled_from(packets),
                                min_size=1, max_size=2 * l))
    if all(p is None for p in listed):
        listed[0] = packets[0]
    steps = progressive_receive(listed, cfg, height, width, planes)
    for step in steps:
        want = synthesize(step.grid, cfg.codec, height, width, planes)
        assert step.image.tobytes() == want.tobytes()
    # A caller who writes into a result's arrays changes no later result.
    session = Receiver(packets[0].header)
    for packet, step in zip(listed, steps):
        if packet is not None:
            session.add(packet)
        result = session.result()
        _assert_same(_as_tuple(result), _as_tuple(step))
        result.image[...] = 7
        result.grid.values[...] = 7


def _damage(packet, rng):
    """The packet with garbage, a cut or a flipped bit for its payload."""
    data = bytearray(packet.payload.data)
    fault = rng.choice(["garbage", "cut", "flip"])
    if fault == "garbage" or not data:
        data = bytearray(_GARBAGE.data)
    elif fault == "cut":
        del data[rng.randrange(len(data)):]
    else:
        bit = rng.randrange(8 * len(data))
        data[bit // 8] ^= 1 << (bit % 8)
    return Packet(header=packet.header, payload=Bitstring(bytes(data)))


def test_a_corrupt_slice_spares_its_depth_and_orphans_its_dependants(
        light_codec):
    # MDC:2 at L=6: slices 3 and 4 share depth 1, and slice 5 reads 3.
    cfg = _cfg(light_codec, "MDC", 6, {"n_d": 2})
    packets, _, _, _ = send(_IMAGE, cfg)
    packets[2] = Packet(header=packets[2].header, payload=_GARBAGE)
    result = receive(packets, [1] * 6, cfg, *_IMAGE.shape)
    assert [str(s) for s in result.slice_status] == [
        "decoded", "decoded", "corrupt", "decoded", "orphaned by 3",
        "decoded"]


@pytest.mark.parametrize("kind,l,params,passes", [
    ("ISC", 10, {}, 1), ("MDC", 10, {"n_d": 2}, 5),
    ("SLC", 9, {"enhancements": 2}, 5), ("LC", 6, {}, 6)])
def test_a_lossless_receive_predicts_once_per_depth(monkeypatch, light_codec,
                                                    kind, l, params, passes):
    cfg = _cfg(light_codec, kind, l, params)
    packets, _, _, _ = send(_IMAGE, cfg)
    calls = []

    def counted(*args, _fn=pipeline.predict, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(pipeline, "predict", counted)
    result = receive(packets, [1] * l, cfg, *_IMAGE.shape)
    assert result.outcome == OUTCOME_LOSSLESS
    assert len(calls) == passes


def _session_steps(packets):
    """One fresh session per prefix of the list, fed the prefix in order."""
    steps = []
    for k in range(1, len(packets) + 1):
        session = Receiver(packets[0].header)
        session.add(*(p for p in packets[:k] if p is not None))
        steps.append(_as_tuple(session.result()))
    return steps


def test_progressive_prefixes_follow_the_list_order(small_image,
                                                    light_codec):
    cfg = _cfg(light_codec, "ISC", 4)
    packets, grid, _, _ = send(small_image, cfg)
    steps = progressive_receive(packets[::-1], cfg, *small_image.shape)
    assert [s.decoded_slices for s in steps] == [
        [4], [3, 4], [2, 3, 4], [1, 2, 3, 4]]
    for got, want in zip(steps, _session_steps(packets[::-1])):
        _assert_same(_as_tuple(got), want)
    assert np.array_equal(steps[-1].grid.values, grid.values)


def test_progressive_ignores_an_appended_copy(small_image, light_codec):
    cfg = _cfg(light_codec, l=4)
    packets, grid, _, _ = send(small_image, cfg)
    steps = progressive_receive(packets + [packets[1]], cfg,
                                *small_image.shape)
    assert len(steps) == 5
    assert steps[-1].outcome == OUTCOME_LOSSLESS
    _assert_same(_as_tuple(steps[-1]), _as_tuple(steps[-2]))
    assert np.array_equal(steps[-1].grid.values, grid.values)


def test_a_copy_costs_no_prediction_and_no_synthesis(monkeypatch,
                                                      small_image,
                                                      light_codec):
    cfg = _cfg(light_codec, l=4)
    packets, _, _, _ = send(small_image, cfg)
    calls = []
    for name in ("predict", "synthesize"):
        def counted(*args, _fn=getattr(pipeline, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    progressive_receive(packets, cfg, *small_image.shape)
    plain = sorted(calls)
    calls.clear()
    # A copy after a concealed prefix and one after the lossless end.
    copies = packets[:2] + [packets[1]] + packets[2:] + [packets[1]]
    steps = progressive_receive(copies, cfg, *small_image.shape)
    assert [s.decoded_slices for s in steps] == [
        [1], [1, 2], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4]]
    assert sorted(calls) == plain
    assert plain.count("synthesize") == 4


def test_progressive_decodes_a_list_with_packets_missing(small_image,
                                                         light_codec):
    cfg = _cfg(light_codec, l=4)
    packets, _, _, _ = send(small_image, cfg)
    kept = [packets[0], packets[2]]
    steps = progressive_receive(kept, cfg, *small_image.shape)
    assert [s.decoded_slices for s in steps] == [[1], [1]]
    assert [str(s) for s in steps[-1].slice_status] == [
        "decoded", "lost", "orphaned by 2", "lost"]
    for got, want in zip(steps, _session_steps(kept)):
        _assert_same(_as_tuple(got), want)


def test_progressive_refuses_a_list_of_another_stream(small_image,
                                                      light_codec):
    packets, _, _, _ = send(small_image, _cfg(light_codec, l=4))
    with pytest.raises(ValueError, match="no packet matches"):
        progressive_receive(packets, _cfg(light_codec, l=5),
                            *small_image.shape)


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


def test_a_missing_context_slice_orphans_by_the_first_undecoded_one(
        small_image, light_codec):
    cfg = _cfg(light_codec, l=4)
    packets, _, _, _ = send(small_image, cfg)
    result = receive(packets, [1, 0, 1, 1], cfg, *small_image.shape)
    assert result.slice_status == [
        SliceStatus(SLICE_DECODED), SliceStatus(SLICE_LOST),
        SliceStatus(SLICE_ORPHANED, 2), SliceStatus(SLICE_ORPHANED, 2)]


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
def test_packets_in_any_order(small_image, light_codec, kind, params,
                              empty_stores):
    cfg = _cfg(light_codec, kind, 8, params)
    image = synthetic_image(5, height=48, width=64)
    packets, grid, _, _ = send(image, cfg)
    want = _as_tuple(receive(packets, [1] * cfg.l, cfg, *image.shape))
    shuffled = list(packets)
    random.Random(1).shuffle(shuffled)
    for order in (packets[::-1], shuffled):
        # From empty stores, the session meets the keys in another order
        # than the sender did; the tables, and so the tokens, are the same.
        empty_stores()
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
                                                            light_codec,
                                                            empty_stores):
    cfg = _cfg(light_codec, l=8)
    image = synthetic_image(5, height=64, width=64)
    packets, _, _, _ = send(image, cfg)
    rows = []
    batch = FreqTable.batch

    def counted(counts):
        rows.append(len(counts))
        return batch(counts)

    monkeypatch.setattr(FreqTable, "batch", staticmethod(counted))
    # Each decode starts from empty stores, so neither finds the send's
    # tables or the other's.
    empty_stores()
    receive(packets, [1] * cfg.l, cfg, *image.shape)
    once = sum(rows)
    rows.clear()
    empty_stores()
    steps = progressive_receive(packets, cfg, *image.shape)
    assert steps[-1].outcome == OUTCOME_LOSSLESS
    assert 0 < sum(rows) <= once


_FAULT_CFG = _cfg(CodecConfig(channels=16), "MDC", 6, {"n_d": 2})
_FAULT_PACKETS, _FAULT_GRID, _, _ = send(_IMAGE, _FAULT_CFG)


@st.composite
def _channel_faults(draw):
    """The stream's wire bytes after bit flips, truncation, duplication,
    reordering and drops."""
    wire = [bytearray(p.to_bytes()) for p in _FAULT_PACKETS]
    for _ in range(draw(st.integers(0, 6))):
        if not wire:
            break
        fault = draw(st.sampled_from(["flip", "truncate", "duplicate",
                                      "reorder", "drop"]))
        k = draw(st.integers(0, len(wire) - 1))
        if fault == "flip" and wire[k]:
            bit = draw(st.integers(0, 8 * len(wire[k]) - 1))
            wire[k][bit // 8] ^= 1 << (bit % 8)
        elif fault == "truncate":
            del wire[k][draw(st.integers(0, len(wire[k]))):]
        elif fault == "duplicate":
            wire.insert(draw(st.integers(0, len(wire))), bytearray(wire[k]))
        elif fault == "reorder":
            wire = draw(st.permutations(wire))
        elif fault == "drop":
            del wire[k]
    return [bytes(b) for b in wire]


@settings(max_examples=100, deadline=None)
@given(_channel_faults())
def test_no_channel_fault_crashes_the_decoder(wire):
    # Only parsing may refuse bytes; whatever it lets through, the
    # session decodes and conceals without raising, and a lossless
    # outcome is the sender's grid.
    session = Receiver(_FAULT_PACKETS[0].header)
    for data in wire:
        try:
            packet = packet_from_bytes(data)
        except PacketFormatError:
            continue
        session.add(packet)
        result = session.result()
        if result.outcome == OUTCOME_LOSSLESS:
            assert np.array_equal(result.grid.values, _FAULT_GRID.values)
    session.result()


_RULE_CFG = _cfg(CodecConfig(channels=16), "LC", 4)
_RULE_PACKETS, _RULE_GRID, _, _ = send(synthetic_image(1, height=48, width=64),
                                       _RULE_CFG)
# Another image's stream with the same slices, and one with more slices.
_OTHER_PACKETS = send(synthetic_image(2, height=48, width=64),
                      replace(_RULE_CFG, image_id=9))[0]
_LONGER_PACKETS = send(_IMAGE, _cfg(CodecConfig(channels=16), "LC", 6))[0]
_RULE_POOL = (_RULE_PACKETS + _OTHER_PACKETS + _LONGER_PACKETS
              + [Packet(header=p.header, payload=_GARBAGE)
                 for p in _RULE_PACKETS])


def _fed_in_order(packets, flags):
    """A fresh session fed the flagged packets in list order."""
    session = Receiver(_RULE_PACKETS[0].header)
    session.add(*(p for p in packets if p is not None
                  and p.header.slice_index < len(flags)
                  and flags[p.header.slice_index]))
    return session.result()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.none() | st.sampled_from(_RULE_POOL), max_size=12),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_receive_holds_what_the_session_holds(packets, flags):
    # Own and other streams' packets, copies with good or garbage
    # payloads and holes, in any order: the session's rule alone says
    # which packet each slice holds.
    if not any(p is not None and p.header == _RULE_PACKETS[0].header
               for p in packets):
        with pytest.raises(ValueError):
            receive(packets, flags, _RULE_CFG, 48, 64)
        return
    result = receive(packets, flags, _RULE_CFG, 48, 64)
    _assert_same(_as_tuple(result), _as_tuple(_fed_in_order(packets, flags)))
    if result.outcome == OUTCOME_LOSSLESS:
        assert np.array_equal(result.grid.values, _RULE_GRID.values)


def test_another_streams_packet_after_a_good_one_is_not_held():
    packets = _RULE_PACKETS + [_OTHER_PACKETS[1]]
    result = receive(packets, [1] * 4, _RULE_CFG, 48, 64)
    assert result.outcome == OUTCOME_LOSSLESS
    assert np.array_equal(result.grid.values, _RULE_GRID.values)
    # Where only the other stream's packet arrives, its slice is rejected.
    packets = [_RULE_PACKETS[0], _OTHER_PACKETS[1]] + _RULE_PACKETS[2:]
    result = receive(packets, [1] * 4, _RULE_CFG, 48, 64)
    assert [str(s) for s in result.slice_status] == [
        "decoded", "rejected", "orphaned by 2", "orphaned by 2"]


def test_receiver_groups_are_the_iteration_schedule():
    # The session groups its own context depths; the groups must be the
    # schedule's for every preset mode.
    for l in range(1, 33):
        modes = [("ISC", {}), ("LC", {})]
        modes += [("MDC", {"n_d": n_d}) for n_d in range(1, l + 1)]
        modes += [("SLC", {"enhancements": e}) for e in range(1, l)]
        for kind, params in modes:
            cfg = _cfg(CodecConfig(channels=16), kind, l, params)
            session = Receiver(stream_header(cfg, 128, 128))
            assert list(map(list, session.groups)) == iteration_schedule(
                session.mode)[0]
