import numpy as np
import pytest

from resicomp.context_modes import iteration_schedule
from resicomp.entropy_coder import Bitstring
from resicomp.pipeline import (FAILED_PSNR_DB, OUTCOME_CONCEALED,
                               OUTCOME_FAILED, OUTCOME_LOSSLESS,
                               PipelineConfig, evaluate, objective,
                               progressive_receive, receive, send)
from resicomp.predictor import PriorModel, fit_prior, load_prior, save_prior
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import analyze
from resicomp.transport import Packet


def _cfg(light_codec, kind="LC", l=6, params=None, **kw):
    return PipelineConfig(codec=light_codec, mode_kind=kind, l=l,
                          mode_params=params or {}, **kw)


def test_send_is_deterministic(small_image, light_codec):
    cfg = _cfg(light_codec)
    a, _, _, _ = send(small_image, cfg)
    b, _, _, _ = send(small_image, cfg)
    assert [p.to_bytes() for p in a] == [p.to_bytes() for p in b]


def test_model_file_prior_gives_the_same_packets(small_image, light_codec,
                                                 tmp_path):
    channels = light_codec.channels
    prior = PriorModel(means=np.linspace(-3.0, 3.0, channels),
                       stds=np.linspace(0.5, 20.0, channels),
                       logits=(2.0, 1.0, 0.0))
    path = tmp_path / "model.rcpm"
    save_prior(path, prior)
    direct, _, _, _ = send(small_image, _cfg(light_codec, prior=prior))
    loaded, _, _, _ = send(small_image,
                           _cfg(light_codec, prior=load_prior(path)))
    assert [p.to_bytes() for p in loaded] == [p.to_bytes() for p in direct]


def test_isc_needs_no_context_passes(small_image, light_codec):
    cfg = _cfg(light_codec, kind="ISC")
    packets, grid, plan, mode = send(small_image, cfg)
    result = receive(packets, [1] * cfg.l, cfg, *small_image.shape)
    assert result.outcome == OUTCOME_LOSSLESS
    assert result.predictor_passes == 0


def test_lossless_receive_reproduces_tokens(small_image, light_codec):
    for kind, params in [("ISC", {}), ("LC", {}), ("MDC", {"n_d": 2}),
                         ("SLC", {"enhancements": 2})]:
        cfg = _cfg(light_codec, kind=kind, params=params)
        packets, grid, _, _ = send(small_image, cfg)
        result = receive(packets, [1] * cfg.l, cfg, *small_image.shape)
        assert result.outcome == OUTCOME_LOSSLESS
        assert np.array_equal(result.grid.values, grid.values)


def test_lc_first_packet_lost_fails(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    flags = [0] + [1] * (cfg.l - 1)
    result = receive(packets, flags, cfg, *small_image.shape)
    assert result.outcome == OUTCOME_FAILED
    assert result.decoded_slices == []
    psnr, _, _ = evaluate(small_image, result.image, result.outcome, packets)
    assert psnr == FAILED_PSNR_DB


def test_lc_mid_loss_propagates(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    flags = [1, 1, 0] + [1] * (cfg.l - 3)
    result = receive(packets, flags, cfg, *small_image.shape)
    assert result.outcome == OUTCOME_CONCEALED
    assert result.decoded_slices == [1, 2]


def test_error_propagation_law_exhaustive(small_image, light_codec):
    # Decodability == closure-received, over all loss patterns at L=5.
    for kind, params in [("ISC", {}), ("LC", {}), ("MDC", {"n_d": 2}),
                         ("SLC", {"enhancements": 1})]:
        cfg = _cfg(light_codec, kind=kind, l=5, params=params)
        packets, _, _, mode = send(small_image, cfg)
        for pattern in range(32):
            flags = [(pattern >> i) & 1 for i in range(5)]
            result = receive(packets, flags, cfg, *small_image.shape)
            expected = [
                i + 1 for i in range(5)
                if flags[i] and all(flags[j - 1] for j in mode.contexts_of(i + 1))
            ]
            assert result.decoded_slices == expected, (kind, flags)


def test_predictor_pass_bound(small_image, light_codec):
    rng = np.random.default_rng(0)
    for kind, params in [("LC", {}), ("MDC", {"n_d": 2}),
                         ("SLC", {"enhancements": 2})]:
        cfg = _cfg(light_codec, kind=kind, params=params)
        packets, _, _, mode = send(small_image, cfg)
        _, k_t = iteration_schedule(mode)
        for _ in range(5):
            flags = (rng.random(cfg.l) > 0.3).astype(int).tolist()
            result = receive(packets, flags, cfg, *small_image.shape)
            assert result.predictor_passes <= k_t + 1


def test_corrupt_payload_treated_as_loss(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    bad = Packet(header=packets[-1].header, payload=Bitstring(b"\xff" * 4))
    packets = packets[:-1] + [bad]
    result = receive(packets, [1] * cfg.l, cfg, *small_image.shape)
    assert result.outcome == OUTCOME_CONCEALED
    assert cfg.l not in result.decoded_slices


def test_evaluate_conventions(small_image):
    psnr, _, _ = evaluate(small_image, small_image, OUTCOME_LOSSLESS, [])
    assert psnr == 100.0
    psnr, _, _ = evaluate(small_image, small_image, OUTCOME_FAILED, [])
    assert psnr == FAILED_PSNR_DB
    flat = np.zeros_like(small_image)
    full = np.full_like(small_image, 255)
    psnr, _, _ = evaluate(flat, full, OUTCOME_CONCEALED, [])
    assert psnr == pytest.approx(0.0, abs=1e-9)


def test_evaluate_bpp_accounting(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    result = receive(packets, [1] * cfg.l, cfg, *small_image.shape)
    _, bpp, bpp_total = evaluate(small_image, result.image, result.outcome,
                                 packets)
    n_pixels = small_image.size
    assert bpp == sum(p.payload.bit_length for p in packets) / n_pixels
    assert bpp_total > bpp  # headers included


def test_evaluate_counts_only_present_packets(small_image, light_codec):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    arrived = [p if i % 2 == 0 else None for i, p in enumerate(packets)]
    flags = [p is not None for p in arrived]
    result = receive(arrived, flags, cfg, *small_image.shape)
    psnr, bpp, bpp_total = evaluate(small_image, result.image,
                                    result.outcome, arrived)
    present = packets[::2]
    n_pixels = small_image.size
    assert psnr == evaluate(small_image, result.image, result.outcome,
                            present)[0]
    assert bpp == sum(p.payload.bit_length for p in present) / n_pixels
    assert bpp_total == sum(p.wire_bits for p in present) / n_pixels
    assert evaluate(small_image, result.image, OUTCOME_FAILED,
                    [None] * cfg.l) == (FAILED_PSNR_DB, 0.0, 0.0)


def test_efficiency_ordering(corpus):
    bpp = {}
    for kind, params in [("LC", {}), ("MDC", {"n_d": 2}), ("ISC", {})]:
        totals = []
        for img in corpus[:4]:
            cfg = PipelineConfig(mode_kind=kind, l=10, mode_params=params)
            packets, _, _, _ = send(img, cfg)
            totals.append(sum(p.payload.bit_length for p in packets)
                          / img.size)
        bpp[kind] = np.mean(totals)
    assert bpp["LC"] <= bpp["MDC"] <= bpp["ISC"]


def test_objective_conventions(small_image, light_codec):
    cfg = _cfg(light_codec)
    r0 = objective(small_image, 0.0, alpha=0.1, lam=0.0035, cfg=cfg,
                   rng_seed=1)
    assert r0.rate_bits == 0.0
    assert r0.distortion_concealed == r0.distortion_quantized
    assert r0.l_total == pytest.approx(r0.l_e + 0.1 * r0.l_r)
    r1 = objective(small_image, 1.0, alpha=0.1, lam=0.0035, cfg=cfg,
                   rng_seed=1)
    assert r1.rate_bits > 0.0
    assert r1.distortion_concealed >= r1.distortion_quantized
    with pytest.raises(ValueError):
        objective(small_image, 1.5, 0.1, 0.0035, cfg, 1)


def test_objective_full_mask_uses_prior_rate(small_image, light_codec):
    cfg = _cfg(light_codec)
    report = objective(small_image, 1.0, alpha=0.1, lam=0.0035, cfg=cfg,
                       rng_seed=2)
    # every token is masked with no context: the rate must price all of
    # them, at least a fraction of a bit each under the wide prior
    grid_positions = (small_image.shape[0] // 16) * (small_image.shape[1] // 16)
    assert report.rate_bits > grid_positions


# (mode kind, mask ratio, prior) -> float.hex of (rate_bits,
# distortion_quantized, distortion_concealed) of synthetic_image(0) at
# C=16, L=6, rng seed 3.  "fitted" is fit_prior over synthetic images 1
# and 2 with logits (1.0, 0.5, -0.5), so the pooled weights of a
# position with a known neighbour are not the default ones.  The
# objective does not read the context mode, so LC and ISC agree.
OBJECTIVE_PINS = {
    ("LC", 0.3, "default"): ("0x1.2d93ad2ff263fp+9", "0x1.c036db6db6db7p+0",
                             "0x1.af7a79e79e79ep+6"),
    ("LC", 1.0, "default"): ("0x1.88152dd9f0569p+11", "0x1.c036db6db6db7p+0",
                             "0x1.1f06d53cf3cf4p+14"),
    ("ISC", 0.3, "default"): ("0x1.2d93ad2ff263fp+9", "0x1.c036db6db6db7p+0",
                              "0x1.af7a79e79e79ep+6"),
    ("ISC", 1.0, "default"): ("0x1.88152dd9f0569p+11", "0x1.c036db6db6db7p+0",
                              "0x1.1f06d53cf3cf4p+14"),
    ("LC", 0.3, "fitted"): ("0x1.24c5ca4f096d8p+9", "0x1.c036db6db6db7p+0",
                            "0x1.af7a79e79e79ep+6"),
    ("LC", 1.0, "fitted"): ("0x1.f198f1abb5c7ap+10", "0x1.c036db6db6db7p+0",
                            "0x1.391bd86186186p+9"),
}


@pytest.mark.parametrize("kind, ratio, prior", sorted(OBJECTIVE_PINS))
def test_objective_is_pinned(smooth_image, light_codec, kind, ratio, prior):
    fitted = None
    if prior == "fitted":
        fitted = fit_prior([analyze(synthetic_image(s), light_codec)
                            for s in (1, 2)], logits=(1.0, 0.5, -0.5))
    cfg = _cfg(light_codec, kind=kind, prior=fitted)
    r = objective(smooth_image, ratio, alpha=0.1, lam=0.0035, cfg=cfg,
                  rng_seed=3)
    got = (r.rate_bits.hex(), r.distortion_quantized.hex(),
           r.distortion_concealed.hex())
    assert got == OBJECTIVE_PINS[kind, ratio, prior]


def test_progressive_final_step_is_lossless(small_image, light_codec):
    cfg = _cfg(light_codec, l=5)
    packets, grid, _, _ = send(small_image, cfg)
    results = progressive_receive(packets, cfg, *small_image.shape)
    assert len(results) == 5
    assert results[-1].outcome == OUTCOME_LOSSLESS
    full = receive(packets, [1] * 5, cfg, *small_image.shape)
    assert np.array_equal(results[-1].image, full.image)


def test_receive_requires_packets(light_codec):
    cfg = _cfg(light_codec)
    with pytest.raises(ValueError):
        receive([], [], cfg, 48, 48)
    with pytest.raises(ValueError):
        receive([None] * 6, [0] * 6, cfg, 48, 48)


@pytest.mark.parametrize("n_flags", [3, 7])
def test_receive_refuses_a_wrong_number_of_flags(small_image, light_codec,
                                                 n_flags):
    cfg = _cfg(light_codec)
    packets, _, _, _ = send(small_image, cfg)
    assert len(packets) == 6
    with pytest.raises(ValueError, match=f"{n_flags} flags"):
        receive(packets, [True] * n_flags, cfg, *small_image.shape)


def test_receive_mode_mismatch_rejected(small_image, light_codec):
    cfg = _cfg(light_codec, kind="LC")
    packets, _, _, _ = send(small_image, cfg)
    wrong = _cfg(light_codec, kind="ISC")
    with pytest.raises(ValueError):
        receive(packets, [1] * cfg.l, wrong, *small_image.shape)
