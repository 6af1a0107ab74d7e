"""Golden bitstreams: packet bytes and decoded pixels pinned by SHA-256.

Any change to the transform, the predictor, the density tables or the
range coder that alters a single output byte fails here; the packet
header carries PACKET_VERSION, so these digests pin it at 3 too.  A
deliberate format change must bump PACKET_VERSION and re-pin them.
The payload digests pin the coded bits alone: a header change leaves
them as they are.  Version 3 snaps the local mixture component to a
grid, which changed every payload that has a known neighbour; ISC has
none, so its payload digest is the one of versions 1 and 2.
"""

import hashlib

import numpy as np
import pytest

from resicomp.pipeline import OUTCOME_CONCEALED, PipelineConfig, receive, send
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig

# (mode kind, mode params, L, channels, height, width) -> digest of the
# concatenated Packet.to_bytes() of every slice.
GOLDEN_PACKETS = {
    ("ISC", (), 10, 64, 96, 112):
        "8fcfbbfe9ad7b10f4b141423c9c806ebc8adf4f8223fe0869b83f1236db87737",
    ("LC", (), 10, 64, 96, 112):
        "2a721026aa0524f2eecec903649f4d0d949875ee82f99866c30330d625398854",
    ("MDC", (("n_d", 2),), 10, 64, 96, 112):
        "a66becb557faecddb51464ff53e7d6e6e2c07da4f97bfc517b36d5d69195235f",
    ("SLC", (("enhancements", 1),), 10, 64, 96, 112):
        "65f6eceb7eb1ed55619843f94bbf763f0ce3a8e3e60678ec6606d488e3e053f8",
    ("LC", (), 4, 16, 64, 64):
        "6d91fd7137f1c03985ee7ca892316a9b0e44ab90486a4637d66da0fea35b3256",
}

# Same keys -> digest of the concatenated payload bytes alone.  These
# pin the coded bits apart from the header, so a header format change
# leaves them as they are.
GOLDEN_PAYLOADS = {
    ("ISC", (), 10, 64, 96, 112):
        "20d1988b0c5546cb000586f183f671c752ec1db99ce54b091787c2df3ce33eaf",
    ("LC", (), 10, 64, 96, 112):
        "3bcab8cd0e4d35d01c9a63efa667c4b25c08692b9b23b083e5e7f76b4d5d90fb",
    ("MDC", (("n_d", 2),), 10, 64, 96, 112):
        "3f78cb93ecf87d2ac540a4ea91720435f8ea646e30ebcb510001711755ab5bef",
    # SLC:1 has LC's context matrix and default beta, so LC's bits.
    ("SLC", (("enhancements", 1),), 10, 64, 96, 112):
        "3bcab8cd0e4d35d01c9a63efa667c4b25c08692b9b23b083e5e7f76b4d5d90fb",
    ("LC", (), 4, 16, 64, 64):
        "1b2a6e162c88897e7a22a3316310077f6cd6070656b8147f75580983babe649d",
}

# MDC:2 L=10 at C=64 with slices 3 and 8 lost: description 1 loses its
# tail from slice 3 on, description 2 from slice 8 on.
LOSSY_FLAGS = [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
GOLDEN_LOSSY_IMAGE = (
    "a935b3e6e04d5298b6ed3868dddcd2092869de841c30f457250019a6031c2b27")
# LC L=10 at C=64, nothing lost.
GOLDEN_LOSSLESS_IMAGE = (
    "8472fa2abaa312eb754f60e7b1ad6309c8745dabba60b6a9db8b6c5455ee865d")


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _image_digest(image):
    return _sha256([np.ascontiguousarray(image).tobytes()])


def _config(kind, params, l, channels):
    return PipelineConfig(codec=CodecConfig(channels=channels), mode_kind=kind,
                          l=l, mode_params=dict(params))


@pytest.mark.parametrize("key", list(GOLDEN_PACKETS),
                         ids=lambda k: f"{k[0]}-L{k[2]}-C{k[3]}")
def test_packet_bytes_are_pinned(key):
    kind, params, l, channels, height, width = key
    image = synthetic_image(0, height=height, width=width)
    packets, _, _, _ = send(image, _config(kind, params, l, channels))
    assert _sha256(p.to_bytes() for p in packets) == GOLDEN_PACKETS[key]
    assert _sha256(p.payload.data for p in packets) == GOLDEN_PAYLOADS[key]


def test_decoded_images_are_pinned():
    image = synthetic_image(0)
    cfg = _config("LC", (), 10, 64)
    packets, _, _, _ = send(image, cfg)
    result = receive(packets, [1] * 10, cfg, *image.shape)
    assert _image_digest(result.image) == GOLDEN_LOSSLESS_IMAGE

    cfg = _config("MDC", (("n_d", 2),), 10, 64)
    packets, _, _, _ = send(image, cfg)
    result = receive(packets, LOSSY_FLAGS, cfg, *image.shape)
    assert result.outcome == OUTCOME_CONCEALED
    assert _image_digest(result.image) == GOLDEN_LOSSY_IMAGE
