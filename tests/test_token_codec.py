import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp.image_io import psnr_db
from resicomp.token_codec import (_DCT, _ZIGZAG, BLOCK, CodecConfig,
                                  MaskedGridError, TokenGrid,
                                  _block_coefficients, analyze, channel_steps,
                                  pad_image, plane_channel_counts, synthesize)

from test_predictor import _child_digest, _dynamic_arch_openblas


def test_constant_image_is_dc_only():
    cfg = CodecConfig()
    img = np.full((32, 32), 128, dtype=np.uint8)
    grid = analyze(img, cfg)
    step0 = channel_steps(cfg, 1)[0]
    assert np.all(grid.values[:, :, 0] == round(16 * 128 / step0))
    assert np.all(grid.values[:, :, 1:] == 0)


def test_single_block_image():
    grid = analyze(np.zeros((16, 16), dtype=np.uint8), CodecConfig())
    assert (grid.h, grid.w) == (1, 1)


def test_grid_shape_is_ceil_division():
    grid = analyze(np.zeros((24, 40), dtype=np.uint8), CodecConfig())
    assert (grid.h, grid.w) == (2, 3)


def test_pad_image_to_block_multiples():
    padded = pad_image(np.zeros((24, 40), dtype=np.uint8))
    assert padded.shape == (32, 48)


def test_all_zero_tokens_synthesize_to_black():
    cfg = CodecConfig()
    grid = TokenGrid(np.zeros((2, 2, cfg.channels), np.int16),
                     np.ones((2, 2), bool))
    img = synthesize(grid, cfg, 32, 32)
    assert np.all(img == 0)


def test_roundtrip_psnr_on_smooth_image(smooth_image):
    cfg = CodecConfig()
    grid = analyze(smooth_image, cfg)
    rec = synthesize(grid, cfg, *smooth_image.shape)
    assert psnr_db(smooth_image, rec) >= 40.0


def test_roundtrip_idempotence(smooth_image):
    cfg = CodecConfig()
    rec = synthesize(analyze(smooth_image, cfg), cfg, *smooth_image.shape)
    rec2 = synthesize(analyze(rec, cfg), cfg, *rec.shape)
    assert np.array_equal(rec, rec2)


def test_analyze_deterministic(smooth_image):
    cfg = CodecConfig()
    a = analyze(smooth_image, cfg)
    b = analyze(smooth_image, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.known, b.known)


def test_quantizer_bound_in_coefficient_domain(smooth_image):
    # Unclamped coefficients reconstruct within step/2.
    cfg = CodecConfig()
    grid = analyze(smooth_image, cfg)
    assert grid.clamp_count == 0
    steps = channel_steps(cfg, 1)
    padded = pad_image(smooth_image).astype(np.float64)
    coeffs = _block_coefficients(padded)[:, :, _ZIGZAG[: cfg.channels]]
    err = np.abs(coeffs - grid.values * steps)
    assert np.all(err <= steps / 2 + 1e-9)


def test_clamp_rate_below_one_permille(corpus):
    cfg = CodecConfig()
    total = clamped = 0
    for img in corpus:
        grid = analyze(img, cfg)
        clamped += grid.clamp_count
        total += grid.values.size
    assert clamped / total < 0.001


def test_synthesize_rejects_masked_grid():
    cfg = CodecConfig()
    grid = TokenGrid(np.zeros((2, 2, cfg.channels), np.int16),
                     np.zeros((2, 2), bool))
    with pytest.raises(MaskedGridError):
        synthesize(grid, cfg, 32, 32)


def test_three_plane_roundtrip():
    from resicomp.synthetic import synthetic_image
    img = synthetic_image(3, planes=3)
    cfg = CodecConfig()
    grid = analyze(img, cfg)
    rec = synthesize(grid, cfg, img.shape[0], img.shape[1], planes=3)
    assert rec.shape == img.shape
    assert psnr_db(img, rec) >= 40.0


def test_plane_channel_counts_split():
    assert plane_channel_counts(64, 1) == [64]
    assert plane_channel_counts(64, 3) == [22, 21, 21]
    assert sum(plane_channel_counts(7, 3)) == 7
    with pytest.raises(ValueError):
        plane_channel_counts(2, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        CodecConfig(channels=0)
    with pytest.raises(ValueError):
        CodecConfig(quality=0.0)
    with pytest.raises(ValueError):
        CodecConfig(clamp=0)


def test_channel_range_is_what_the_header_carries():
    from resicomp.pipeline import PipelineConfig, receive, send
    from resicomp.transport import packet_from_bytes
    image = np.arange(16 * 16, dtype=np.uint8).reshape(16, 16)
    cfg = PipelineConfig(codec=CodecConfig(channels=255), l=1)
    packets, grid, _, _ = send(image, cfg)
    parsed = [packet_from_bytes(p.to_bytes()) for p in packets]
    assert parsed[0].header.channels == 255
    result = receive(parsed, [1], cfg, 16, 16)
    assert np.array_equal(result.grid.values, grid.values)
    with pytest.raises(ValueError, match="1..255"):
        CodecConfig(channels=256)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=1, max_value=40),
    fill=st.integers(min_value=0, max_value=255),
)
def test_analyze_total_on_arbitrary_sizes(h, w, fill):
    grid = analyze(np.full((h, w), fill, dtype=np.uint8), CodecConfig())
    assert grid.h == -(-h // BLOCK)
    assert grid.w == -(-w // BLOCK)
    assert grid.known.all()


def _einsum_coefficients(pixels):
    """Forward transform as one einsum over all blocks."""
    hgt, wid = pixels.shape
    blocks = pixels.reshape(hgt // BLOCK, BLOCK, wid // BLOCK, BLOCK)
    blocks = blocks.transpose(0, 2, 1, 3).astype(np.float64)
    coeffs = np.einsum("ij,hwjk,lk->hwil", _DCT, blocks, _DCT, optimize=True)
    return coeffs.reshape(coeffs.shape[0], coeffs.shape[1], BLOCK * BLOCK)


def _einsum_image(grid, cfg, planes):
    """Synthesis as the einsum reference: dequantize, zero-fill each
    plane's dropped coefficients, inverse transform, round and clip."""
    coeffs = grid.values * channel_steps(cfg, planes)
    out = np.empty((grid.h * BLOCK, grid.w * BLOCK, planes))
    offset = 0
    for p, count in enumerate(plane_channel_counts(cfg.channels, planes)):
        full = np.zeros((grid.h, grid.w, BLOCK * BLOCK))
        full[:, :, _ZIGZAG[:count]] = coeffs[:, :, offset:offset + count]
        blocks = full.reshape(grid.h, grid.w, BLOCK, BLOCK)
        pixels = np.einsum("ji,hwjk,kl->hwil", _DCT, blocks, _DCT,
                           optimize=True)
        out[:, :, p] = pixels.transpose(0, 2, 1, 3).reshape(out.shape[:2])
        offset += count
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out[:, :, 0] if planes == 1 else out


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 24), w=st.integers(1, 24),
       kept=st.integers(1, 255), planes=st.sampled_from([1, 3]),
       quality=st.sampled_from([0.25, 1.0, 1.7]),
       seed=st.integers(0, 2**32 - 1))
def test_transforms_equal_the_einsum_reference(h, w, kept, planes, quality,
                                               seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(h * BLOCK, w * BLOCK), dtype=np.uint8)
    assert (_block_coefficients(pixels).tobytes()
            == _einsum_coefficients(pixels).tobytes())
    cfg = CodecConfig(channels=kept, quality=quality)
    planes = min(planes, kept)
    values = np.rint(rng.normal(0.0, 8.0, size=(h, w, kept)))
    dc = np.cumsum([0] + plane_channel_counts(kept, planes)[:-1])
    values[:, :, dc] += rng.integers(0, 128 / quality, size=(h, w, planes))
    grid = TokenGrid(np.clip(values, -cfg.clamp, cfg.clamp),
                     np.ones((h, w), bool))
    assert (synthesize(grid, cfg, h * BLOCK, w * BLOCK, planes).tobytes()
            == _einsum_image(grid, cfg, planes).tobytes())


# Synthesized images, printed as a digest by a child process, so that
# runs under two BLAS kernels can be compared.
_SYNTHESIZE_DIGEST = """
import hashlib, numpy as np
from resicomp.pipeline import PipelineConfig, progressive_receive, send
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig, TokenGrid, synthesize
rng = np.random.default_rng(5)
h = hashlib.sha256()
for channels, planes in ((16, 1), (64, 1), (48, 3)):
    cfg = CodecConfig(channels=channels)
    values = rng.normal(0.0, 8.0, size=(20, 23, channels))
    values[:, :, ::channels // planes] += rng.integers(0, 128, (20, 23, 1))
    grid = TokenGrid(np.clip(np.rint(values), -127, 127),
                     np.ones((20, 23), bool))
    h.update(synthesize(grid, cfg, 313, 361, planes).tobytes())
cfg = PipelineConfig(codec=CodecConfig(channels=16), mode_kind="MDC", l=8,
                     mode_params={"n_d": 2})
packets, _, _, _ = send(synthetic_image(6, 96, 112), cfg)
for step in progressive_receive(packets[::-1], cfg, 96, 112):
    h.update(step.image.tobytes())
print(h.hexdigest())
"""


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS that picks its "
                           "kernel at run time")
def test_images_do_not_depend_on_the_blas_kernel():
    plain = _child_digest(_SYNTHESIZE_DIGEST)
    assert plain.returncode == 0, plain.stderr
    old = _child_digest(_SYNTHESIZE_DIGEST, OPENBLAS_CORETYPE="Prescott")
    assert old.returncode == 0, old.stderr
    assert old.stdout == plain.stdout
