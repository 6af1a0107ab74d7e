"""Golden bitstreams: packet bytes and decoded pixels pinned by SHA-256.

Any change to the transform, the predictor, the density tables or the
range coder that alters a single output byte fails here; the packet
header carries PACKET_VERSION, so these digests pin it at 2 too.  A
deliberate format change must bump PACKET_VERSION and re-pin them.
The payload digests pin the coded bits alone: a header change leaves
them as they are.
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
        "3baa2ba7849c85cf808d2dd1e9203ac3b423b0dcedd295016a134affb320bdc9",
    ("LC", (), 10, 64, 96, 112):
        "bdbc98d87c80d645a138a67a39ae6888f5637539ff1cc8b71a579693e1d80016",
    ("MDC", (("n_d", 2),), 10, 64, 96, 112):
        "d05d225d670b7b0f7c5123fbea924520c8f4cfe580df88604a19b17f8dcca8da",
    ("SLC", (("enhancements", 1),), 10, 64, 96, 112):
        "494f691bf5565f14fbbd2e69bc264af926e9f602d509afe4c0cf918862a65d2b",
    ("LC", (), 4, 16, 64, 64):
        "a04cbd70443d9a37a9f39e19723db312f1b8ea17462f956ec6be5e31a4a0a84d",
}

# Same keys -> digest of the concatenated payload bytes alone.  These
# pin the coded bits apart from the header, so a header format change
# leaves them as they are.
GOLDEN_PAYLOADS = {
    ("ISC", (), 10, 64, 96, 112):
        "20d1988b0c5546cb000586f183f671c752ec1db99ce54b091787c2df3ce33eaf",
    ("LC", (), 10, 64, 96, 112):
        "9c53e3517220dae002024bb09df4c7b2aae24c0606b79ffc57a16ec744a556e4",
    ("MDC", (("n_d", 2),), 10, 64, 96, 112):
        "c331defa046562eb4258cdf0f83b6cf59b828d1ed4280e1682b5d35bbdb95f00",
    # SLC:1 has LC's context matrix and default beta, so LC's bits.
    ("SLC", (("enhancements", 1),), 10, 64, 96, 112):
        "9c53e3517220dae002024bb09df4c7b2aae24c0606b79ffc57a16ec744a556e4",
    ("LC", (), 4, 16, 64, 64):
        "bbb9abc7df8f49b235e47c676c368396abbaf768803b804c9cdae94abfb669dc",
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
