"""The packet header as the one description of a stream.

Both ends build mode, plan and codec from the header (`stream_header`
and `Stream`), so every config `send` accepts must survive the
wire, and a receiver must refuse packets of another stream.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from resicomp import pipeline
from resicomp.entropy_coder import Bitstring
from resicomp.pipeline import (MAX_GRID_POSITIONS, OUTCOME_CONCEALED,
                               OUTCOME_LOSSLESS, SLICE_DECODED,
                               SLICE_REJECTED, PipelineConfig, Receiver,
                               SliceStatus, Stream, receive, send,
                               stream_header)
from resicomp.predictor import PriorModel
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import BLOCK, CodecConfig
from resicomp.transport import Packet, packet_from_bytes

_IMAGE = synthetic_image(0, height=96, width=112)  # 6x7 token grid


def _over_the_wire(packets):
    return [packet_from_bytes(p.to_bytes()) for p in packets]


def _round_trip(image, cfg):
    """Send, serialize, parse and receive everything; (result, grid)."""
    packets, grid, _, _ = send(image, cfg)
    planes = 1 if image.ndim == 2 else image.shape[2]
    result = receive(_over_the_wire(packets), [1] * len(packets), cfg,
                     image.shape[0], image.shape[1], planes)
    return result, grid


def _assert_lossless(result, grid):
    assert result.outcome == OUTCOME_LOSSLESS
    assert np.array_equal(result.grid.values, grid.values)


@st.composite
def _configs(draw):
    # One example in four may put any value in any field; the others
    # keep every field where send accepts it, so that most examples code.
    wild = draw(st.integers(0, 3)) == 0

    def pick(fitting, anything):
        return draw(st.one_of(fitting, anything) if wild else fitting)

    kind = draw(st.sampled_from(["ISC", "LC", "MDC", "SLC"]))
    params = {}
    if kind == "MDC":
        params["n_d"] = pick(st.integers(1, 4), st.integers(0, 300))
    elif kind == "SLC":
        params["enhancements"] = pick(st.integers(1, 4), st.integers(0, 300))
    # Clamps above 300 come with few channels on a small image, which
    # keeps their wide tables cheap to build.
    clamp = pick(st.integers(1, 300), st.integers(1, 2**40))
    wide = clamp > 300
    codec = CodecConfig(
        channels=draw(st.integers(1, 4 if wide else 255)),
        quality=draw(st.floats(min_value=0.0, exclude_min=True,
                               allow_infinity=False)),
        clamp=clamp)
    cfg = PipelineConfig(
        codec=codec, mode_kind=kind, mode_params=params,
        l=pick(st.integers(5, 12), st.integers(1, 300)),
        beta=pick(st.one_of(st.none(), st.floats(0.0, 65.535)), st.floats()),
        plan_seed=draw(st.integers(-2**70, 2**70)),
        image_id=pick(st.integers(0, 2**64 - 1), st.integers(-2**65, 2**65)))
    side = 32 if wide else 128
    height, width = (pick(st.integers(side // 2, side), st.integers(1, side))
                     for _ in "hw")
    image = synthetic_image(draw(st.integers(0, 9)), height=height,
                            width=width)
    if draw(st.booleans()):
        image = np.stack([image, image[::-1], 255 - image], axis=2)
    return image, cfg


@settings(max_examples=120, deadline=None)
@given(_configs())
def test_every_accepted_config_survives_the_wire_or_is_refused(case):
    image, cfg = case
    try:
        header = stream_header(cfg, *image.shape[:2],
                               1 if image.ndim == 2 else 3)
        Stream(header, cfg.prior)
    except ValueError as exc:
        # Refused before any coding: send must refuse it the same way.
        event(f"refused: {str(exc).split()[0]}")
        with pytest.raises(ValueError):
            send(image, cfg)
        return
    # Extreme qualities overflow the synthesis; the tokens are the test.
    with np.errstate(all="ignore"):
        result, grid = _round_trip(image, cfg)
    event("round trip")
    _assert_lossless(result, grid)


@settings(max_examples=40, deadline=None)
@given(_configs())
def test_each_packet_header_is_the_stream_header_at_its_slice(case):
    # `send` sets only the slice index of the header it checked; every
    # field must be what the checking constructor gives.
    image, cfg = case
    planes = 1 if image.ndim == 2 else 3
    try:
        header = stream_header(cfg, *image.shape[:2], planes)
        with np.errstate(all="ignore"):
            packets = send(image, cfg)[0]
    except ValueError:
        return
    for i, packet in enumerate(packets):
        want = replace(header, slice_index=i)
        assert vars(packet.header) == vars(want)
        assert packet.header == want and hash(packet.header) == hash(want)


def _cfg(kind="LC", l=10, params=None, **codec):
    return PipelineConfig(codec=CodecConfig(channels=16, **codec),
                          mode_kind=kind, l=l, mode_params=params or {})


@pytest.mark.parametrize("seed,on_wire", [(-1, 2**64 - 1), (2**64 + 5, 5)])
def test_plan_seeds_outside_64_bits_round_trip(seed, on_wire):
    cfg = PipelineConfig(codec=CodecConfig(channels=16), plan_seed=seed)
    result, grid = _round_trip(_IMAGE, cfg)
    _assert_lossless(result, grid)
    assert stream_header(cfg, *_IMAGE.shape).plan_seed == on_wire


@pytest.mark.parametrize("beta,milli", [(0.0004, 0), (0.3333, 333)])
def test_betas_between_thousandths_round_trip(beta, milli):
    cfg = PipelineConfig(codec=CodecConfig(channels=16), beta=beta)
    result, grid = _round_trip(_IMAGE, cfg)
    _assert_lossless(result, grid)
    assert stream_header(cfg, *_IMAGE.shape).beta_milli == milli


def test_the_widest_clamp_round_trips():
    image = synthetic_image(0, height=16, width=16)
    cfg = PipelineConfig(codec=CodecConfig(channels=1, clamp=32767), l=1)
    result, grid = _round_trip(image, cfg)
    _assert_lossless(result, grid)


def test_quality_two_with_mdc2_round_trips():
    result, grid = _round_trip(_IMAGE, _cfg("MDC", params={"n_d": 2},
                                            quality=2.0))
    _assert_lossless(result, grid)


@pytest.mark.parametrize("change,field", [
    (dict(l=256), "total_slices"),
    (dict(image_id=-1), "image_id"),
    (dict(beta=-0.5), "beta"),
    (dict(beta=float("nan")), "beta"),
    (dict(codec=CodecConfig(channels=16, clamp=32768)), "clamp")])
def test_values_the_header_cannot_hold_are_refused_before_coding(change,
                                                                 field):
    fields = dict(codec=CodecConfig(channels=16), l=10)
    fields.update(change)
    with pytest.raises(ValueError, match=field):
        send(_IMAGE, PipelineConfig(**fields))


def test_mdc2_packets_do_not_decode_as_mdc4():
    packets, grid, _, _ = send(_IMAGE, _cfg("MDC", params={"n_d": 2}))
    with pytest.raises(ValueError, match="no packet matches"):
        receive(packets, [1] * 10, _cfg("MDC", params={"n_d": 4}),
                *_IMAGE.shape)
    session = Receiver(packets[0].header)
    session.add(*packets)
    _assert_lossless(session.result(), grid)


def test_quality_two_packets_do_not_decode_at_quality_one():
    packets, grid, _, _ = send(_IMAGE, _cfg(quality=2.0))
    with pytest.raises(ValueError, match="no packet matches"):
        receive(packets, [1] * 10, _cfg(), *_IMAGE.shape)
    session = Receiver(packets[0].header)
    session.add(*packets)
    _assert_lossless(session.result(), grid)


def test_packets_of_another_image_are_rejected():
    image_b = synthetic_image(1, height=96, width=112)
    cfg_a = PipelineConfig(codec=CodecConfig(channels=16), mode_kind="ISC",
                           l=6, image_id=1)
    cfg_b = PipelineConfig(codec=CodecConfig(channels=16), mode_kind="ISC",
                           l=6, image_id=2)
    packets_a, _, _, _ = send(_IMAGE, cfg_a)
    packets_b, _, _, _ = send(image_b, cfg_b)
    mixed = packets_a[:3] + packets_b[3:]
    result = receive(mixed, [1] * 6, cfg_a, *_IMAGE.shape)
    assert result.outcome == OUTCOME_CONCEALED
    assert result.slice_status == (
        [SliceStatus(SLICE_DECODED)] * 3 + [SliceStatus(SLICE_REJECTED)] * 3)
    assert str(result.slice_status[3]) == "rejected"
    assert result.decoded_slices == [1, 2, 3]


def test_a_receiver_refuses_a_prior_the_stream_was_not_coded_with():
    packets, _, _, _ = send(_IMAGE, _cfg())
    other = PriorModel(means=np.zeros(16), stds=np.full(16, 5.0))
    with pytest.raises(ValueError, match="prior"):
        Receiver(packets[0].header, other)


def test_a_rewritten_output_size_sets_the_grid():
    # The header carries no grid size: a header that names another
    # output size also names another grid, never the old 3x3 one.
    image = synthetic_image(7, height=48, width=48)
    cfg = PipelineConfig(codec=CodecConfig(channels=16), mode_kind="LC", l=4)
    packets, grid, _, _ = send(image, cfg)
    rewritten = _over_the_wire(
        Packet(header=replace(p.header, height=1000), payload=p.payload)
        for p in packets)
    session = Receiver(rewritten[0].header)
    session.add(*rewritten)
    result = session.result()
    assert result.image.shape == (1000, 48)
    assert result.grid.values.shape == (-(-1000 // BLOCK), 3, 16)
    assert not (result.outcome == OUTCOME_LOSSLESS
                and result.grid.values.shape == grid.values.shape)


def test_a_grid_over_the_bound_is_refused():
    # 257x256 token positions, one row of blocks over 4096x4096.
    assert MAX_GRID_POSITIONS == 256 * 256
    height, width = BLOCK * 257, BLOCK * 256
    with pytest.raises(ValueError, match="token positions"):
        Stream(stream_header(_cfg(), height, width))
    with pytest.raises(ValueError, match="token positions"):
        send(np.zeros((height, width), np.uint8), _cfg())


def test_the_largest_header_is_refused_before_any_plan(monkeypatch,
                                                       empty_layouts):
    header = replace(stream_header(_cfg(), 48, 48), height=65535,
                     width=65535, channels=255)

    def no_plan(*args):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(pipeline, "build_plan", no_plan)
    with pytest.raises(ValueError, match="token positions"):
        Stream(header)
    with pytest.raises(ValueError, match="token positions"):
        Receiver(header)


@pytest.mark.parametrize("planes", [0, 17])
def test_a_plane_count_outside_the_channels_is_refused_up_front(
        monkeypatch, empty_layouts, planes):
    # A CRC-valid header: without the check in `Stream` a session
    # decoded every slice and failed only in `result`.
    packet = Packet(header=replace(stream_header(_cfg(l=4), 48, 48),
                                   planes=planes), payload=Bitstring(b""))
    header = packet_from_bytes(packet.to_bytes()).header

    def nothing_built(*args):
        raise AssertionError("a mode or plan was built")

    monkeypatch.setattr(pipeline, "make_mode", nothing_built)
    monkeypatch.setattr(pipeline, "build_plan", nothing_built)
    match = f"planes {planes} is outside 1..16"
    with pytest.raises(ValueError, match=match):
        Stream(header)
    with pytest.raises(ValueError, match=match):
        Receiver(header)
