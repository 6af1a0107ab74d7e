"""The layouts and the default prior that a process builds once.

A stream's mode, plan, context depths and their groups are a function
of a few header fields, so the process keeps them (`stream_layout`):
a cached layout must equal a fresh build, headers that differ in one of
those fields must get their own, and a bad header must raise every
time.  The default prior is shared too, so its arrays are read-only.
"""

from dataclasses import replace

import numpy as np
import pytest

from resicomp import pipeline
from resicomp.context_modes import (MODE_IDS, MODE_PARAM, context_depths,
                                    iteration_schedule, make_mode)
from resicomp.partition import build_plan
from resicomp.pipeline import (PipelineConfig, Receiver, Stream,
                               progressive_receive, receive, send,
                               stream_header, stream_layout)
from resicomp.predictor import default_prior, fit_prior, load_prior, save_prior
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig, analyze

_GRIDS = [(6, 6), (5, 9), (12, 14)]
_SEEDS = [0, 1, 12345, 2**64 - 1]
_BETAS_MILLI = [0, 500, 1000, 65535]


def _preset_modes(l):
    """(mode id, mode_param) of every preset mode at l slices."""
    modes = [(MODE_IDS["ISC"], 0), (MODE_IDS["LC"], 0)]
    modes += [(MODE_IDS["MDC"], n_d) for n_d in range(1, l + 1)]
    modes += [(MODE_IDS["SLC"], e) for e in range(1, l)]
    return modes


def test_a_cached_layout_is_a_fresh_build(empty_layouts):
    case = 0
    for l in range(1, 33):
        for mode_id, param in _preset_modes(l):
            # Cycle through grids, seeds and betas rather than taking
            # their product: each mode meets a few of each.
            grid_h, grid_w = _GRIDS[case % len(_GRIDS)]
            seed = _SEEDS[case % len(_SEEDS)]
            beta_milli = _BETAS_MILLI[(case // len(_SEEDS)) % 4]
            case += 1
            fields = (grid_h, grid_w, mode_id, l, param, seed, beta_milli)
            mode, plan, depths, groups = layout = stream_layout(*fields)
            assert stream_layout(*fields) is layout
            key = MODE_PARAM.get(mode_id)
            fresh = make_mode(mode_id, l, {key: param} if key else {})
            assert mode.mode_id == mode_id and mode.l == l
            assert np.array_equal(mode.g, fresh.g)
            assert plan == build_plan(grid_h, grid_w, l, fresh, seed,
                                      beta_milli / 1000)
            assert depths == tuple(context_depths(fresh))
            assert isinstance(groups, tuple)
            assert all(isinstance(group, tuple) for group in groups)
            assert list(map(list, groups)) == iteration_schedule(fresh)[0]
    assert case > 1000


_BASE = stream_header(PipelineConfig(
    codec=CodecConfig(channels=16), mode_kind="MDC", l=6,
    mode_params={"n_d": 2}, beta=0.5, plan_seed=5), 48, 64)


def _layout(stream):
    return stream.mode, stream.plan, stream.depths, stream.groups


@pytest.mark.parametrize("field,value", [
    ("height", 56), ("width", 72), ("mode_id", MODE_IDS["LC"]),
    ("total_slices", 8), ("mode_param", 3), ("plan_seed", 6),
    ("beta_milli", 501)])
def test_a_header_that_differs_in_one_layout_field_gets_its_own(
        empty_layouts, field, value):
    base = _layout(Stream(_BASE))
    other = _layout(Stream(replace(_BASE, **{field: value})))
    assert other is not base
    assert (other[1] != base[1] or other[2] != base[2]
            or not np.array_equal(other[0].g, base[0].g))


@pytest.mark.parametrize("changes", [
    {"image_id": 9}, {"slice_index": 3}, {"quality": 2},
    {"clamp": 63, "prior_fingerprint": default_prior(16, 63).fingerprint},
    {"channels": 8, "prior_fingerprint": default_prior(8, 127).fingerprint}])
def test_a_header_that_differs_elsewhere_shares_the_layout(empty_layouts,
                                                           changes):
    base = Stream(_BASE)
    other = Stream(replace(_BASE, **changes))
    assert _layout(other) == _layout(base)
    assert other.plan is base.plan and other.mode is base.mode


def test_a_mode_without_a_parameter_ignores_the_header_field(empty_layouts):
    lc = replace(_BASE, mode_id=MODE_IDS["LC"], mode_param=0)
    assert Stream(replace(lc, mode_param=7)).plan is Stream(lc).plan


@pytest.mark.parametrize("field,value", [
    ("mode_param", 0),  # MDC needs 1 <= n_d <= L
    ("mode_id", 200),  # no preset
    ("total_slices", 13),  # more slices than the 12 token positions
])
def test_a_bad_header_raises_every_time(empty_layouts, field, value):
    header = replace(_BASE, height=24, width=32, **{field: value})
    for _ in range(2):
        with pytest.raises(ValueError):
            Stream(header)
        with pytest.raises(ValueError):
            Receiver(header)
    assert stream_layout.cache_info().currsize == 0


def test_send_and_receive_build_one_layout(monkeypatch, empty_layouts):
    # A send, a receive and a progressive receive of one config share
    # the layout the first of them built.
    calls = {name: 0 for name in ("build_plan", "make_mode",
                                  "context_depths")}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name,
                            counted(name, getattr(pipeline, name)))
    image = synthetic_image(3, height=48, width=64)
    cfg = PipelineConfig(codec=CodecConfig(channels=16), mode_kind="LC", l=4)
    packets, _, _, _ = send(image, cfg)
    receive(packets, [1] * 4, cfg, 48, 64)
    progressive_receive(packets, cfg, 48, 64)
    assert calls == {"build_plan": 1, "make_mode": 1, "context_depths": 1}


def test_the_plan_positions_as_one_read_only_array():
    mode = make_mode("MDC", 5, {"n_d": 2})
    plan = build_plan(7, 9, 5, mode, seed=3)
    at = plan.position_array
    assert at.dtype == np.intp and at.shape == (63, 2)
    assert not at.flags.writeable
    assert at.tolist() == [list(p) for p in plan.positions]
    for i in range(1, 6):
        lo, hi = plan.boundaries[i - 1], plan.boundaries[i]
        assert at[lo:hi].tolist() == [list(p) for p in
                                      plan.slice_positions(i)]
    assert plan.position_array is at


def test_the_default_prior_is_shared_and_read_only(tmp_path):
    prior = default_prior(16, 127)
    assert default_prior(16, 127) is prior
    for a in (prior.means, prior.stds):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    # Other clamps and channel counts get their own.
    assert default_prior(16, 63) is not prior
    assert default_prior(8, 127).channels == 8
    # Fitted and loaded priors belong to their caller.
    fitted = fit_prior([analyze(synthetic_image(1, height=48, width=48),
                                CodecConfig(channels=16))])
    save_prior(tmp_path / "fitted.rcpm", fitted)
    loaded = load_prior(tmp_path / "fitted.rcpm")
    for owned in (fitted, loaded):
        for a in (owned.means, owned.stds):
            assert a.flags.writeable
